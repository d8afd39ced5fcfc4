package dist

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// syncWriter serializes writes so a stall-detector dump (watcher
// goroutine) cannot race the test's read.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestWriteEventsRoundTrip runs a recorded cluster and checks the merged
// event log reconstructs the run: every agent present, the round timeline
// reaching the requested round, sane staleness distribution.
func TestWriteEventsRoundTrip(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	reg := telemetry.NewRegistry()
	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Staleness: 1,
		Telemetry: telemetry.NewDistMetrics(reg),
		record:    true,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const rounds = 30
	stats, err := cl.Run(rounds, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds completed")
	}

	var buf bytes.Buffer
	if err := cl.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(recs)
	if a.MaxRound < rounds {
		t.Errorf("event log reaches round %d, want >= %d", a.MaxRound, rounds)
	}
	if want := len(p.Flows) + len(p.Nodes); len(a.Agents) != want {
		t.Errorf("%d agents in log, want %d", len(a.Agents), want)
	}
	if a.Stalls != 0 {
		t.Errorf("%d stalls recorded in a healthy run", a.Stalls)
	}
	total := 0
	for lag, n := range a.StalenessDist {
		if lag < 0 || lag > 2 {
			t.Errorf("observed input lag %d outside [0, K+1]", lag)
		}
		total += n
	}
	if total == 0 {
		t.Error("empty staleness distribution")
	}
	if got := int(cl.cfg.Telemetry.RoundsFinalized.Value()); got < rounds {
		t.Errorf("telemetry finalized %d rounds, want >= %d", got, rounds)
	}
}

// TestWriteEventsRequiresRecord: without a flight recorder the dump must fail
// loudly instead of returning an empty log.
func TestWriteEventsRequiresRecord(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteEvents(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteEvents succeeded with recording disabled")
	}
}

// TestStallPostmortemOnLostStop recreates the fault-dropped-Stop hang: the
// control plane is partitioned away before Close, every Stop frame is
// lost, the agents never exit, and Close times out. The cluster must
// notice and dump a post-mortem naming the stall instead of leaving a
// silent hung-test mystery.
func TestStallPostmortemOnLostStop(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	reg := telemetry.NewRegistry()
	tel := telemetry.NewDistMetrics(reg)
	pm := &syncWriter{}
	cl, err := New(p, Config{
		Core:       core.Config{Adaptive: true},
		Staleness:  1,
		Telemetry:  tel,
		Postmortem: pm,
		stopGrace:  200 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(10, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Cut the control endpoint off: Stop frames now vanish exactly like
	// fault-injected drops (ErrDropped is tolerated by Close's error
	// filter), so no agent ever sees its Stop.
	net.SetPartition(ctrlHost, 9)
	err = cl.Close()
	if err == nil || !strings.Contains(err.Error(), "timeout stopping") {
		t.Fatalf("Close error = %v, want stop timeout", err)
	}
	net.ClearPartitions()

	recs, perr := ReadEventLog(bytes.NewReader(pm.bytes()))
	if perr != nil {
		t.Fatal(perr)
	}
	if len(recs) == 0 {
		t.Fatal("post-mortem dump is empty")
	}
	a := Analyze(recs)
	if a.Stalls != 1 {
		t.Errorf("post-mortem records %d stalls, want 1", a.Stalls)
	}
	if a.MaxRound < 10 {
		t.Errorf("post-mortem reaches round %d, want >= 10", a.MaxRound)
	}
	if tel.Stalls.Value() != 1 {
		t.Errorf("stall counter = %d, want 1", tel.Stalls.Value())
	}
}

// TestStallDetectorTripsMidRun arms the detector, then makes the
// transport drop every frame mid-run: the collector freezes with rounds
// pending, the watcher trips before the Run timeout, and the post-mortem
// shows the agents chirping into the void.
func TestStallDetectorTripsMidRun(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	net.SetDropExempt(ctrlHost)
	reg := telemetry.NewRegistry()
	tel := telemetry.NewDistMetrics(reg)
	pm := &syncWriter{}
	cl, err := New(p, Config{
		Core:         core.Config{Adaptive: true},
		Staleness:    1,
		resend:       2 * time.Millisecond,
		Telemetry:    tel,
		Postmortem:   pm,
		StallTimeout: 100 * time.Millisecond,
		stopGrace:    200 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(10, time.Minute); err != nil {
		t.Fatal(err)
	}

	net.SetDropRate(1.0, 3) // every agent frame now vanishes
	_, runErr := cl.Run(10, 2*time.Second)
	if runErr == nil {
		t.Fatal("Run succeeded with a fully lossy transport")
	}
	if tel.Stalls.Value() != 1 {
		t.Errorf("stall counter = %d, want 1", tel.Stalls.Value())
	}
	recs, perr := ReadEventLog(bytes.NewReader(pm.bytes()))
	if perr != nil {
		t.Fatal(perr)
	}
	a := Analyze(recs)
	if a.Stalls != 1 {
		t.Errorf("post-mortem records %d stalls, want 1", a.Stalls)
	}
	if a.TotalResends == 0 {
		t.Error("no chirps in the post-mortem of a lossy stall")
	}

	net.SetDropRate(0, 0)
	cl.Close()
}

// TestTraceAnalyzeThousandAgents is the end-to-end acceptance run: 1008
// agents under 10% loss, one flow agent partitioned off mid-run and
// healed. The merged flight-recorder log must rank exactly that agent as
// the top straggler and attribute repair traffic to the stall window.
func TestTraceAnalyzeThousandAgents(t *testing.T) {
	p := workload.Scaled(workload.Config{FlowCopies: 112})
	if agents := len(p.Flows) + len(p.Nodes); agents < 1000 {
		t.Fatalf("workload too small: %d agents", agents)
	}
	const straggler = 5

	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 1)
	net.SetDropExempt(ctrlHost)

	cl, err := New(p, Config{
		Core:       core.Config{Adaptive: true},
		Staleness:  2,
		resend:     5 * time.Millisecond,
		record:     true,
		recordSize: 1024,
		ownHost:    flowName(straggler),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Run in the background and cut the straggler off once the collector
	// has heard it announce round 5, so the cut lands mid-run however
	// slowly the cluster starts. (Waiting for a finalized round would not
	// do: under 10% loss almost no round assembles before the last.)
	type runResult struct {
		stats []RoundStats
		err   error
	}
	resCh := make(chan runResult, 1)
	go func() {
		stats, err := cl.Run(60, 4*time.Minute)
		resCh <- runResult{stats, err}
	}()

	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		cl.coll.mu.Lock()
		heard := cl.coll.latestFlow[straggler]
		cl.coll.mu.Unlock()
		if heard >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector heard %s only through round %d", flowName(straggler), heard)
		}
	}
	// The cut closes inbound first. Deaf, flow/5 stops at its staleness
	// bound and its chirps hand its last round to both of its nodes, so
	// the full cut that follows cannot split that round between them: a
	// node that missed it would stall as far behind the frontier as
	// flow/5, or further, and could rank above it. Cut off, flow/5
	// sits 2K+1 = 5 rounds behind (its component stalls with it) and its
	// nodes K+1. Loss alone puts a node up to 8 behind until a chirp
	// repairs it, which over the rest of the run (≈0.5 s on 2 vCPUs)
	// sums to what a 400 ms cut gives flow/5; the cut outlasts the rest
	// of the run so that it decides the ranking.
	own := hostOf(cl, flowName(straggler))
	for _, b := range cl.flows[straggler].peerNodes {
		net.SetOneWay(hostOf(cl, nodeName(b)), own, true)
	}
	time.Sleep(100 * time.Millisecond)
	net.SetPartition(own, 9)
	time.Sleep(1400 * time.Millisecond)
	net.ClearPartitions()

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.stats) == 0 {
		t.Fatal("no rounds completed")
	}

	var buf bytes.Buffer
	if err := cl.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(recs)
	if a.MaxRound < 60 {
		t.Errorf("event log reaches round %d, want >= 60", a.MaxRound)
	}
	if len(a.Agents) < 1000 {
		t.Errorf("%d agents in log, want >= 1000", len(a.Agents))
	}
	// Ranking identity needs real-time cadence: under the race detector
	// the cluster runs ~50x slower, so scheduler starvation legitimately
	// puts arbitrary agents further behind than the 400ms partition puts
	// flow/5. The race build keeps the run for 1008-agent recorder
	// coverage and skips only the identity assertions.
	if !raceEnabled {
		top := a.Agents[0]
		if top.Agent != flowName(straggler) {
			t.Errorf("top straggler = %s (behind %dns, maxlag %d), want %s",
				top.Agent, top.BehindNanos, top.MaxLag, flowName(straggler))
		}
		if top.BehindNanos == 0 {
			t.Error("straggler BehindNanos = 0")
		}
		if top.MaxLag < 2 {
			t.Errorf("straggler MaxLag = %d, want >= 2", top.MaxLag)
		}
	}
	if a.TotalResends == 0 {
		t.Error("no resend chirps recorded under loss + partition")
	}
	lossRounds := 0
	for _, rs := range a.Rounds {
		if rs.Resends > 0 {
			lossRounds++
		}
	}
	if lossRounds == 0 {
		t.Error("no per-round loss (resend) attribution")
	}
}
