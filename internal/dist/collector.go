package dist

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// collector aggregates rate announcements and node reports into per-round
// global utilities and the latest global allocation.
type collector struct {
	p     *model.Problem
	ep    transport.Endpoint
	obs   *sink
	epoch time.Time

	// progress counts every absorbed message and lastFinal holds the
	// highest finalized round; the stall detector polls both without
	// taking mu. No round at or below lastFinal is assembled again.
	progress  atomic.Uint64
	lastFinal atomic.Int64

	mu sync.Mutex
	// latest state. deliveries[j] < 0 means "no per-class delivery
	// reported": the class receives at its flow's rate.
	rates      []float64
	consumers  []int
	deliveries []float64
	active     []bool
	// round assembly: one record per round with inputs still outstanding,
	// and the records of finalized rounds kept for reuse.
	// activeCount and each record's count of rates from currently-active
	// flows are maintained incrementally so the per-message completeness
	// check is O(1) — a full scan per message is what melts the collector
	// on thousand-agent clusters.
	pending     map[int]*roundAsm
	free        []*roundAsm
	activeCount int
	nodesTotal  int
	// Observability state: the frontier (freshest round seen in any
	// message) and per-agent latest rounds (for the effective-staleness
	// scan at finalize; a node still at 0 never reports and is skipped).
	frontier   int
	latestFlow []int
	latestNode []int
	stats      []RoundStats
	// report is the decode scratch inbound reports land in; only run's
	// goroutine touches it.
	report reportMsg
	// inOrder finalizes rounds strictly sequentially (the lossless
	// barrier protocol). When false (bounded-staleness mode over lossy
	// transports) any fully-assembled round finalizes, and rounds whose
	// frames were lost are simply skipped: freed once a later round
	// finalizes.
	inOrder bool
	waiters []roundWaiter

	// parked, when non-nil, holds run back until it is closed: tests use
	// it to let the agents get as far ahead of the collector as they can.
	parked chan struct{}
	done   chan struct{}
}

// roundAsm assembles one round's inputs in arrays indexed by id, so a
// round costs no allocation once a record has been through the free list.
type roundAsm struct {
	rates    []float64 // by flow, where rateSeen
	rateSeen []bool
	pops     []int     // by class
	dels     []float64 // by class; < 0 = none reported, as in collector.deliveries
	reported []bool    // by node; a set, so resent reports are deduplicated
	got      int       // rateSeen flows that are currently active
	reports  int       // reported nodes
	first    int64     // when the first input arrived, since the epoch
}

type roundWaiter struct {
	round int
	ch    chan struct{}
}

// newCollector builds the collector. nodesTotal must be the number of
// node agents that actually report each round: nodes reached by at least
// one flow or owning at least one link with flows (a node with neither
// never computes).
func newCollector(p *model.Problem, ep transport.Endpoint, nodesTotal int, inOrder bool, obs *sink, epoch time.Time) *collector {
	c := &collector{
		p:           p,
		ep:          ep,
		obs:         obs,
		epoch:       epoch,
		latestFlow:  make([]int, len(p.Flows)),
		latestNode:  make([]int, len(p.Nodes)),
		rates:       make([]float64, len(p.Flows)),
		consumers:   make([]int, len(p.Classes)),
		deliveries:  make([]float64, len(p.Classes)),
		active:      make([]bool, len(p.Flows)),
		pending:     make(map[int]*roundAsm),
		activeCount: len(p.Flows),
		nodesTotal:  nodesTotal,
		inOrder:     inOrder,
		done:        make(chan struct{}),
	}
	for i := range c.active {
		c.active[i] = true
	}
	for j := range c.deliveries {
		c.deliveries[j] = -1
	}
	return c
}

func (c *collector) run() {
	defer close(c.done)
	if c.parked != nil {
		<-c.parked
	}
	for m := range c.ep.Recv() {
		if !c.handle(m) {
			return
		}
	}
}

// handle dispatches one message, returning false on Stop.
func (c *collector) handle(m transport.Message) bool {
	switch m.Kind {
	case ctrlKind:
		cm, err := decodeCtrl(m.Payload)
		if err == nil && cm.Expect {
			if int(cm.Flow) < len(c.active) {
				c.mu.Lock()
				c.setActiveLocked(cm.Flow, true)
				c.mu.Unlock()
			}
			echoExpect(c.ep, m)
		}
		return err != nil || !cm.Stop
	case rateKind:
		if rm, err := decodeRate(m.Payload); err == nil && int(rm.Flow) < len(c.rates) {
			c.absorbRate(rm)
		}
	case reportKind:
		if rm := &c.report; decodeReport(m.Payload, rm) == nil && int(rm.Node) < len(c.latestNode) {
			c.absorbReport(rm)
		}
	}
	return true
}

// asmLocked returns the assembly record of a round with inputs still
// outstanding, starting one when this is the round's first input, and
// advances the frontier. A message for a round at or below the last
// finalized one (a resent duplicate, or a straggler a later round overtook)
// gets nil: it still updates the latest state, nothing else.
func (c *collector) asmLocked(round int) *roundAsm {
	c.frontier = max(c.frontier, round)
	if a := c.pending[round]; a != nil {
		return a
	}
	if round <= int(c.lastFinal.Load()) {
		return nil
	}
	var a *roundAsm
	if n := len(c.free); n > 0 {
		a, c.free = c.free[n-1], c.free[:n-1]
		clear(a.rateSeen)
		clear(a.pops)
		clear(a.reported)
		a.got, a.reports = 0, 0
	} else {
		a = &roundAsm{
			rates:    make([]float64, len(c.rates)),
			rateSeen: make([]bool, len(c.rates)),
			pops:     make([]int, len(c.consumers)),
			dels:     make([]float64, len(c.consumers)),
			reported: make([]bool, len(c.latestNode)),
		}
	}
	for j := range a.dels {
		a.dels[j] = -1
	}
	a.first = int64(time.Since(c.epoch))
	c.pending[round] = a
	return a
}

func (c *collector) absorbRate(rm rateMsg) {
	c.progress.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latestFlow[rm.Flow] = max(c.latestFlow[rm.Flow], rm.Round)
	a := c.asmLocked(rm.Round)
	c.setActiveLocked(rm.Flow, rm.Active)
	if rm.Active {
		c.rates[rm.Flow] = rm.Rate
		if a != nil {
			if !a.rateSeen[rm.Flow] {
				a.rateSeen[rm.Flow] = true
				a.got++
			}
			a.rates[rm.Flow] = rm.Rate
		}
	} else {
		c.rates[rm.Flow] = 0
		for j := range c.p.Classes {
			if c.p.Classes[j].Flow == rm.Flow {
				c.consumers[j] = 0
			}
		}
	}
	c.completeRoundsLocked(rm.Round)
}

// setActiveLocked records a flow's departure or its rejoin (announced by
// the flow's own rate, or ahead of it by Cluster.JoinFlow's Expect
// control); only a change of state does anything.
func (c *collector) setActiveLocked(i model.FlowID, on bool) {
	if c.active[i] == on {
		return
	}
	c.active[i] = on
	if on {
		c.activeCount++
	} else {
		c.activeCount--
	}
	c.recountPendingLocked()
}

// recountPendingLocked rebuilds the per-round active-rate counters after a
// flow's activity flips. Departures and rejoins are rare control events, so
// the full recount stays off the hot path.
func (c *collector) recountPendingLocked() {
	for _, a := range c.pending {
		a.got = 0
		for i, seen := range a.rateSeen {
			if seen && c.active[i] {
				a.got++
			}
		}
	}
}

func (c *collector) absorbReport(rm *reportMsg) {
	c.progress.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latestNode[rm.Node] = max(c.latestNode[rm.Node], rm.Round)
	a := c.asmLocked(rm.Round)
	for _, e := range rm.Populations {
		if e.ID < len(c.consumers) {
			c.consumers[e.ID] = e.Val
			if a != nil {
				a.pops[e.ID] = e.Val
			}
		}
	}
	for _, e := range rm.Deliveries {
		if e.ID < len(c.deliveries) {
			c.deliveries[e.ID] = e.Val
			if a != nil {
				a.dels[e.ID] = e.Val
			}
		}
	}
	if a != nil && !a.reported[rm.Node] {
		a.reported[rm.Node] = true
		a.reports++
	}
	c.completeRoundsLocked(rm.Round)
}

// completeRoundsLocked finalizes rounds whose full input set has arrived.
// In inOrder mode rounds finalize strictly sequentially after lastFinal; in
// skip mode (bounded staleness over lossy transports) the round just
// touched finalizes independently, since earlier rounds may never
// assemble.
func (c *collector) completeRoundsLocked(touched int) {
	if !c.inOrder {
		c.finalizeLocked(touched)
		return
	}
	for c.finalizeLocked(int(c.lastFinal.Load()) + 1) {
	}
}

// finalizeLocked checks completeness of one round and, if complete,
// computes its utility, appends stats, and wakes waiters. It reports
// whether the round was finalized.
func (c *collector) finalizeLocked(round int) bool {
	a := c.pending[round]
	if a == nil || c.activeCount == 0 || a.got < c.activeCount || a.reports < c.nodesTotal {
		return false
	}

	// Utility of the completed round, from the round's own rates,
	// populations and (in multirate mode) per-class deliveries; inactive
	// flows contribute nothing.
	util := 0.0
	for j := range c.p.Classes {
		cl := &c.p.Classes[j]
		n := a.pops[j]
		if n == 0 || !c.active[cl.Flow] {
			continue
		}
		rate := a.rates[cl.Flow]
		if a.dels[j] >= 0 {
			rate = a.dels[j]
		}
		util += float64(n) * cl.Utility.Value(rate)
	}
	c.stats = append(c.stats, RoundStats{Round: round, Utility: util})

	// Observability: effective staleness (frontier minus the slowest
	// active agent), finalize lag, and the round's assembly time. The
	// O(flows+nodes) slowest-agent scan runs once per finalized round,
	// not per message, so it stays off the absorb hot path.
	c.lastFinal.Store(int64(round))
	if c.obs != nil {
		slowest := c.frontier
		for i, r := range c.latestFlow {
			if c.active[i] && r < slowest {
				slowest = r
			}
		}
		for _, r := range c.latestNode {
			if r > 0 && r < slowest { // nodes at 0 never report (silent)
				slowest = r
			}
		}
		assembly := int64(time.Since(c.epoch)) - a.first
		c.obs.finalize(round, c.frontier-slowest, c.frontier-round, assembly)
	}
	delete(c.pending, round)
	c.free = append(c.free, a)
	if !c.inOrder {
		// Every agent's input to this round has arrived, each sender's
		// frames arrive in order, and a chirp resends only its sender's
		// latest value: a round below this one still pending has lost a
		// frame for good (or, under injected delay, comes too late).
		for r, a := range c.pending {
			if r < round {
				delete(c.pending, r)
				c.free = append(c.free, a)
			}
		}
	}

	still := c.waiters[:0]
	for _, w := range c.waiters {
		if round >= w.round {
			close(w.ch)
		} else {
			still = append(still, w)
		}
	}
	c.waiters = still
	return true
}

// waitRound blocks until the given round, or in skip mode a later one, has
// been finalized.
func (c *collector) waitRound(round int, timeout time.Duration) error {
	c.mu.Lock()
	if int(c.lastFinal.Load()) >= round {
		c.mu.Unlock()
		return nil
	}
	w := roundWaiter{round: round, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-c.done:
		return fmt.Errorf("dist: collector stopped before round %d", round)
	case <-time.After(timeout):
		return fmt.Errorf("dist: timeout waiting for round %d", round)
	}
}

// rounds returns the finalized stats for rounds [from, to], in round
// order, and forgets every round up to to: Run asks for each round once,
// so the collector holds only rounds finalized ahead of the caller. In
// skip mode, rounds whose frames were lost are absent.
func (c *collector) rounds(from, to int) []RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []RoundStats
	keep := c.stats[:0]
	for _, s := range c.stats {
		switch {
		case s.Round > to:
			keep = append(keep, s)
		case s.Round >= from:
			out = append(out, s)
		}
	}
	c.stats = keep
	slices.SortFunc(out, func(a, b RoundStats) int { return a.Round - b.Round })
	return out
}

// allocation snapshots the latest global allocation.
func (c *collector) allocation() model.Allocation {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := model.Allocation{
		Rates:     make([]float64, len(c.rates)),
		Consumers: make([]int, len(c.consumers)),
	}
	copy(a.Rates, c.rates)
	copy(a.Consumers, c.consumers)
	return a
}
