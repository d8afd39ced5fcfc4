package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The flight recorder: a fixed-size, lock-free ring of binary-packed
// events each agent writes on its hot path. Recording is a handful of
// atomic stores (no locks, no allocation, no time formatting), cheap
// enough to leave on in production runs; the ring holds the last
// DefaultRecordSize events so a post-mortem dump shows what every agent
// was doing when the cluster stalled. Round numbers ride on every event
// as the causal correlation key: merging rings by timestamp and grouping
// by round reconstructs the cross-agent timeline without any clock
// coordination beyond the cluster's shared monotonic epoch.

// EventType tags one flight-recorder event.
type EventType uint8

// Event types recorded by the agents, gateways and collector.
const (
	// EvSend is a rate announce (flow agents) or report broadcast (node
	// agents): A = observed input lag in rounds (how stale the inputs
	// used were), B = peer fan-out.
	EvSend EventType = iota + 1
	// EvRecv is an inbound rate/report frame that was rejected by the
	// duplicate/monotonic guards (or announced a departure): A = sender
	// id (flow id for rates, node id for reports). Accepted frames
	// record EvAbsorb instead — one event per frame keeps the hot path
	// cheap.
	EvRecv
	// EvAbsorb is an inbound value accepted into local state (passed the
	// duplicate/monotonic guards): A = sender id. An absorb implies the
	// receive.
	EvAbsorb
	// EvResend is a stall chirp re-announcing the freshest value: A = the
	// backoff interval in nanoseconds.
	EvResend
	// EvFlush is one gateway flush epoch: A = staged messages, B = batch
	// frames written.
	EvFlush
	// EvRound is a round advance: the agent finished `Round` (collector:
	// finalized it; A = staleness lag, B = assembly nanos).
	EvRound
	// EvStall is a stall-detector trip, recorded by the cluster: Round =
	// the highest finalized round at the trip.
	EvStall
)

var evNames = [...]string{
	EvSend:   "send",
	EvRecv:   "recv",
	EvAbsorb: "absorb",
	EvResend: "resend",
	EvFlush:  "flush",
	EvRound:  "round",
	EvStall:  "stall",
}

// String returns the JSONL schema name of the event type.
func (t EventType) String() string {
	if int(t) < len(evNames) && evNames[t] != "" {
		return evNames[t]
	}
	return "unknown"
}

// MarshalText writes the type's JSONL schema name, String.
func (t EventType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText inverts MarshalText; an unknown name reads as 0.
func (t *EventType) UnmarshalText(b []byte) error {
	*t = EventType(max(slices.Index(evNames[:], string(b)), 0))
	return nil
}

// DefaultRecordSize is the per-agent ring capacity (events). At 32 bytes
// per slot a thousand-agent cluster records ~8 MB total — bounded and
// allocation-free regardless of run length.
const DefaultRecordSize = 256

// Event is one decoded flight-recorder entry, and one line of the JSONL
// event log that Cluster.WriteEvents and the stall detector's post-mortem
// dumps write and ReadEventLog and the lrgp-trace analyzer read.
type Event struct {
	// Agent is the recording agent's endpoint name ("flow/3", "node/7",
	// "collector", "host/2", or "cluster" for detector-level events).
	Agent string `json:"agent"`
	// Seq is the agent-local sequence number (monotonic, gap-free per
	// agent; gaps after a dump mean the ring wrapped).
	Seq uint64 `json:"seq"`
	// Nanos is time since the cluster's shared monotonic epoch, at the
	// recorder clock's coarse resolution.
	Nanos int64 `json:"ns"`
	// Type is the event type, written by name; Round the causal
	// correlation key (0 for round-less events).
	Type  EventType `json:"ev"`
	Round int       `json:"round"`
	// A and B are per-type arguments (see the EventType docs). The ring
	// stores them as unsigned 32-bit halves of one word, saturating at
	// 2^32-1 — every recorded quantity (ids, counts, lags, sub-second
	// backoff nanos) fits far below that.
	A int64 `json:"a,omitempty"`
	B int64 `json:"b,omitempty"`
}

// writeEvents renders events as JSONL, sorted by timestamp (ties broken
// by agent and sequence, so output is deterministic).
func writeEvents(w io.Writer, events []Event) error {
	slices.SortFunc(events, func(a, b Event) int {
		if a.Nanos != b.Nanos {
			if a.Nanos < b.Nanos {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Agent, b.Agent); c != 0 {
			return c
		}
		return int(a.Seq) - int(b.Seq)
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("dist: write events: %w", err)
		}
	}
	return bw.Flush()
}

// ReadEventLog parses a JSONL event log produced by Cluster.WriteEvents
// or a stall post-mortem. Blank lines are skipped; a malformed line fails
// with its line number.
func ReadEventLog(r io.Reader) ([]Event, error) {
	return telemetry.ReadJSONL[Event](r, "dist: event log")
}

// recClock is the recorders' shared coarse timestamp source: one atomic
// nanos-since-epoch word advanced by a background ticker. Reading the
// real clock costs more than the rest of record combined (~45ns for
// time.Now vs ~10ns for the seqlock stores), so the hot path loads this
// word instead. 100µs resolution is two orders of magnitude finer than
// the ~10ms round cadence the analyzer correlates.
type recClock struct {
	epoch time.Time
	now   atomic.Int64
	quit  chan struct{}
	done  chan struct{}
}

// clockResolution is the coarse timestamp granularity.
const clockResolution = 100 * time.Microsecond

// newRecClock starts the ticker goroutine; callers must stop it.
func newRecClock(epoch time.Time) *recClock {
	c := &recClock{epoch: epoch, quit: make(chan struct{}), done: make(chan struct{})}
	c.tick()
	go c.run()
	return c
}

func (c *recClock) tick() { c.now.Store(int64(time.Since(c.epoch))) }

func (c *recClock) run() {
	defer close(c.done)
	t := time.NewTicker(clockResolution)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			c.tick()
		}
	}
}

func (c *recClock) stop() {
	close(c.quit)
	<-c.done
}

// recorder is one agent's ring. Writers claim a slot with one atomic
// increment and any number of concurrent readers (the stall detector,
// Cluster.WriteEvents) may scan it; a per-slot seqlock keeps readers from
// observing torn writes without ever blocking a writer. A nil recorder
// records nothing, so agents hold it unconditionally.
type recorder struct {
	agent string
	clk   *recClock
	mask  uint64
	next  atomic.Uint64 // sequence of the next event to write
	slots []recSlot
}

// recSlot is one ring entry (32 bytes: slot density is hot-path memory
// traffic). seq doubles as the seqlock word: 2n+1 while event n is being
// written, 2n+2 once it is published. Readers verify seq before and
// after loading the payload words.
type recSlot struct {
	seq atomic.Uint64
	w   [3]atomic.Uint64
}

// sat32 clamps a recorded argument into the unsigned 32-bit half-word
// the ring stores it in.
func sat32(v int64) uint64 {
	if v < 0 {
		return 0
	}
	if v > 0xffffffff {
		return 0xffffffff
	}
	return uint64(v)
}

// newRecorder builds a ring of the given capacity rounded up to a power
// of two (for mask indexing), stamping events from the shared clock.
func newRecorder(agent string, size int, clk *recClock) *recorder {
	n := 1
	for n < size {
		n <<= 1
	}
	return &recorder{agent: agent, clk: clk, mask: uint64(n - 1), slots: make([]recSlot, n)}
}

// record appends one event. Zero allocations: one atomic increment to
// claim the slot plus four atomic stores and one clock load.
func (r *recorder) record(ev EventType, round int, a, b int64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1) - 1
	s := &r.slots[seq&r.mask]
	s.seq.Store(2*seq + 1) // odd: write in progress
	s.w[0].Store(uint64(ev) | uint64(uint32(round))<<8)
	s.w[1].Store(uint64(r.clk.now.Load()))
	s.w[2].Store(sat32(a) | sat32(b)<<32)
	s.seq.Store(2*seq + 2) // even: published
}

// events appends the ring's currently readable entries to buf in sequence
// order, skipping any slot the writer overwrites mid-read. Safe to call
// concurrently with record.
func (r *recorder) events(buf []Event) []Event {
	if r == nil {
		return buf
	}
	hi := r.next.Load()
	lo := uint64(0)
	if n := uint64(len(r.slots)); hi > n {
		lo = hi - n
	}
	for seq := lo; seq < hi; seq++ {
		s := &r.slots[seq&r.mask]
		want := 2*seq + 2
		if s.seq.Load() != want {
			continue
		}
		w0 := s.w[0].Load()
		nanos := int64(s.w[1].Load())
		ab := s.w[2].Load()
		if s.seq.Load() != want {
			continue // torn: the writer lapped us on this slot
		}
		buf = append(buf, Event{
			Agent: r.agent,
			Seq:   seq,
			Nanos: nanos,
			Type:  EventType(w0 & 0xff),
			Round: int(uint32(w0 >> 8)),
			A:     int64(ab & 0xffffffff),
			B:     int64(ab >> 32),
		})
	}
	return buf
}
