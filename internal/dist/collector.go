package dist

import (
	"slices"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// collector aggregates rate announcements and node reports into per-round
// global utilities and the latest global allocation. The round loop drives
// it as it drives every agent, but it only observes: it sends no round value.
type collector struct {
	p     *model.Problem
	ep    *hostPort
	obs   *sink
	epoch time.Time
	// final is signalled whenever a round finalizes; Run waits on it.
	final chan struct{}
	done  chan struct{}

	mu sync.Mutex
	// absorbed counts every absorbed message (Run's stall check reads it)
	// and lastFinal holds the highest finalized round. No round at or
	// below lastFinal is assembled again.
	absorbed  int
	lastFinal int
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
	// report is the decode scratch inbound reports land in; only the
	// loop's goroutine touches it.
	report reportMsg
	// inOrder finalizes rounds strictly sequentially (the lossless
	// barrier protocol). When false (bounded-staleness mode over lossy
	// transports) any fully-assembled round finalizes, and rounds whose
	// frames were lost are simply skipped: freed once a later round
	// finalizes.
	inOrder bool
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

// newCollector builds the collector. nodesTotal must be the number of
// node agents that actually report each round: nodes reached by at least
// one flow or owning at least one link with flows (a node with neither
// never computes).
func newCollector(p *model.Problem, ep *hostPort, nodesTotal int, inOrder bool, obs *sink, epoch time.Time) *collector {
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
		final:       make(chan struct{}, 1),
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

// advance and chirp have nothing to do: rounds finalize as handle absorbs
// their inputs, and there is no value to re-send (the loop arms no timer).
func (c *collector) advance() (bool, error) { return false, nil }
func (c *collector) chirp() (int, error)    { return 0, nil }

// mark is what Run's wait reads: the highest finalized round and how many
// messages have been absorbed.
func (c *collector) mark() (lastFinal, absorbed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastFinal, c.absorbed
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
	if round <= c.lastFinal {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.absorbed++
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
	c.finalizeLocked(rm.Round)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.absorbed++
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
	c.finalizeLocked(rm.Round)
}

// finalizeLocked finalizes every round that an input to round touched
// completed: a round whose rates from all active flows and reports from all
// reporting nodes have arrived gets its utility computed and its stats
// appended, and Run is signalled. Only the choice of rounds depends on the
// schedule. At K=0 (inOrder) rounds finalize strictly after lastFinal, in
// order, whichever round the input was for. At K>0 the touched round
// finalizes on its own, since an earlier round may never assemble, and frees
// every pending round below it.
func (c *collector) finalizeLocked(touched int) {
	round := touched
	if c.inOrder {
		round = c.lastFinal + 1
	}
	for ; ; round++ {
		a := c.pending[round]
		if a == nil || c.activeCount == 0 || a.got < c.activeCount || a.reports < c.nodesTotal {
			return
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
		c.lastFinal = round
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
		select {
		case c.final <- struct{}{}:
		default: // a signal is already pending
		}
		if c.inOrder {
			continue
		}
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
		return
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
	return model.Allocation{Rates: slices.Clone(c.rates), Consumers: slices.Clone(c.consumers)}
}
