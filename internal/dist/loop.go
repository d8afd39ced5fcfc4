package dist

import (
	"errors"
	"math"
	"time"

	"repro/internal/transport"
)

// roundAgent is a flow or node agent, or the collector, as the round loop
// drives it: three steps over the agent's own state, none of which blocks.
type roundAgent interface {
	// handle takes one inbound message and returns false on Stop.
	handle(m transport.Message) bool
	// advance completes every round the agent's inputs permit, and what
	// else a message left pending, and reports whether it completed one.
	advance() (progressed bool, err error)
	// chirp re-sends the agent's freshest value after a stall and returns
	// its round, or 0 when there is nothing to re-send yet.
	chirp() (round int, err error)
}

// loop is the round loop of every agent and the collector, at every staleness
// bound: the agent advances as far as its inputs permit, then blocks on its
// inbox. While stalled, the chirp re-sends its freshest value, so a dropped
// frame cannot deadlock the cluster. It returns on a Stop, a closed inbox
// or a send that finds the transport closed (the only fatal send error),
// and then detaches the agent's port and closes done.
func loop(a roundAgent, ep *hostPort, obs *sink, resend time.Duration, done chan struct{}) {
	defer close(done)
	defer ep.detach()
	c := newChirp(resend)
	defer c.stop()
	for {
		progressed, err := a.advance()
		if err != nil {
			return
		}
		if progressed {
			c.progress()
		}
		ep.idle()
		select {
		case m, ok := <-ep.Recv():
			if !ok || !a.handle(m) {
				return
			}
		case <-c.C:
			round, err := a.chirp()
			if err != nil {
				return
			}
			if round > 0 {
				obs.resend(round, c.wait)
			}
			if c.stalled() {
				obs.backoff()
			}
		}
	}
}

// peers is an agent's tally of the agents it exchanges values with, by
// position: each one's endpoint name, the freshest round it has sent, and
// whether it has departed (only a node's flows do). A peer sends its rounds
// in order, so its freshest round is all the staleness bound needs.
type peers struct {
	names    []string
	latest   []int
	inactive []bool
}

func newPeers(names []string) peers {
	return peers{names: names, latest: make([]int, len(names)), inactive: make([]bool, len(names))}
}

// oldest is the round every active peer has sent through: math.MaxInt
// when there is none, so that nobody is waited for.
func (ps *peers) oldest() int {
	oldest := math.MaxInt
	for k, r := range ps.latest {
		if !ps.inactive[k] {
			oldest = min(oldest, r)
		}
	}
	return oldest
}

// newest is the freshest round any active peer has sent, 0 when there is
// none.
func (ps *peers) newest() int {
	newest := 0
	for k, r := range ps.latest {
		if !ps.inactive[k] {
			newest = max(newest, r)
		}
	}
	return newest
}

// lag is the effective staleness of inputs meant to be from round t: how
// far the oldest active peer is behind it.
func (ps *peers) lag(t int) int {
	return max(t-ps.oldest(), 0)
}

// send sends msg to every active peer and then the collector, all sharing
// one payload (receivers treat payloads as read-only). Lossy-transport
// failures (drops, partitions) are tolerated — bounded staleness is
// designed for them, and the barrier schedule runs on lossless transports;
// only a closed transport is fatal.
//
// A departed peer is told nothing: nobody waits for it, so nothing would
// bound what piles up in its inbox, and the one value it needs when it
// rejoins is sent to it then (nodeAgent.setActive).
func (ps *peers) send(ep transport.Endpoint, msg transport.Message) error {
	for k, peer := range ps.names {
		if ps.inactive[k] {
			continue
		}
		msg.To = peer
		if err := ep.Send(msg); errors.Is(err, transport.ErrClosed) {
			return err
		}
	}
	msg.To = collectorName
	if err := ep.Send(msg); errors.Is(err, transport.ErrClosed) {
		return err
	}
	return nil
}

// chirp is the stall re-announce policy of the round loop: C fires once an
// agent has gone `wait` without progress, so it can re-send its freshest
// value and a dropped frame cannot deadlock the cluster. Progress pushes the
// deadline out again — chirps fire only after a genuine stall, because a
// periodic chirp from every agent of a large cluster is a message storm —
// and repeated stalls back off exponentially: when the whole cluster is slow
// (not lossy), fixed-period chirps from every agent feed back into the
// slowness.
type chirp struct {
	C     <-chan time.Time // nil (never fires) when resends are disabled
	wait  time.Duration    // the interval the timer was last armed with
	base  time.Duration
	timer *time.Timer
}

// newChirp arms a chirp that first fires after base; base <= 0 disables it.
func newChirp(base time.Duration) *chirp {
	c := &chirp{base: base, wait: base}
	if base > 0 {
		c.timer = time.NewTimer(base)
		c.C = c.timer.C
	}
	return c
}

// progress re-arms the timer at the base interval.
func (c *chirp) progress() {
	if c.timer != nil {
		c.wait = c.base
		c.timer.Reset(c.wait)
	}
}

// stalled re-arms the timer after it fired, doubling the interval up to 16x
// base, and reports whether it grew.
func (c *chirp) stalled() bool {
	grew := c.wait < 16*c.base
	if grew {
		c.wait *= 2
	}
	c.timer.Reset(c.wait)
	return grew
}

func (c *chirp) stop() {
	if c.timer != nil {
		c.timer.Stop()
	}
}
