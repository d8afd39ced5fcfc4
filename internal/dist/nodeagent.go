package dist

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/transport"
)

// nodeAgent runs Algorithm 2 (greedy consumer allocation plus the Equation
// 12 price update) for one node, and Algorithm 3 (Equation 13) for the
// links it owns (links whose To endpoint is this node, per the paper's
// footnote that one of the two endpoint nodes computes a link's price).
type nodeAgent struct {
	p    *model.Problem
	node model.NodeID
	ep   *hostPort
	cfg  core.Config

	alloc  *core.NodeAllocator
	pricer *core.NodePricer
	// deliveries is non-nil in multirate mode: the rate each class here is
	// delivered and admitted at (see deliver).
	deliveries []float64

	// classes attached at this node, ascending.
	classes []model.ClassID
	// ownedLinks, ascending, with each one's price; the flows on a link
	// and their costs are its record in p.
	ownedLinks []model.LinkID
	linkPrices []float64

	// flows is the ascending set of flows whose rates this agent needs
	// each round — flows through the node plus flows of owned links — and
	// peerNames their agents' endpoints. inactive and latest (the freshest
	// round each flow announced) follow it.
	flows     []model.FlowID
	peerNames []string
	inactive  []bool
	latest    []int

	// Dynamic state. report is what compute fills and broadcast sends: the
	// node's latest report, kept for the resend chirp.
	rates     []float64
	consumers []int
	report    reportMsg
	out       outbox
	staleness int           // how many rounds behind a flow's rate may be
	resend    time.Duration // stalled re-broadcast interval; <= 0 disables

	obs *sink // flight recorder and metrics (nil = both off)

	done chan struct{}
}

func newNodeAgent(p *model.Problem, ix *model.Index, b model.NodeID, c Config) *nodeAgent {
	cfg := c.Core
	na := &nodeAgent{
		p:         p,
		node:      b,
		cfg:       cfg,
		alloc:     core.NewNodeAllocator(p, ix, b),
		pricer:    core.NewNodePricer(cfg),
		classes:   ix.ClassesByNode(b),
		flows:     slices.Clone(ix.FlowsByNode(b)),
		rates:     make([]float64, len(p.Flows)),
		consumers: make([]int, len(p.Classes)),
		staleness: c.Staleness,
		resend:    c.resend,
		done:      make(chan struct{}),
	}
	for l := range p.Links {
		if p.Links[l].To != b {
			continue
		}
		lid := model.LinkID(l)
		na.ownedLinks = append(na.ownedLinks, lid)
		na.linkPrices = append(na.linkPrices, 0) // prices start at zero, as the engine's do
		na.flows = append(na.flows, ix.FlowsByLink(lid)...)
	}
	slices.Sort(na.flows)
	na.flows = slices.Compact(na.flows)
	for _, i := range na.flows {
		na.peerNames = append(na.peerNames, flowName(i))
	}
	na.inactive = make([]bool, len(na.flows))
	na.latest = make([]int, len(na.flows))
	if c.Multirate {
		na.deliveries = make([]float64, len(p.Classes))
	}
	return na
}

// compute runs one allocation + price update from the current rates and
// fills na.report with the round's report.
func (na *nodeAgent) compute(round int) {
	if na.deliveries != nil {
		na.deliver()
	}
	out := na.alloc.Allocate(na.rates, na.deliveries, na.consumers)
	price := na.pricer.Update(out, na.p.Nodes[na.node].Capacity)

	rm := &na.report
	rm.Round, rm.Node, rm.Price, rm.Used, rm.BestBC = round, na.node, price, out.Used, out.BestUnsatisfied
	rm.Populations, rm.Deliveries, rm.LinkPrices = rm.Populations[:0], rm.Deliveries[:0], rm.LinkPrices[:0]
	for _, cid := range na.classes {
		rm.Populations = append(rm.Populations, keyed[int]{int(cid), na.consumers[cid]})
		if na.deliveries != nil {
			rm.Deliveries = append(rm.Deliveries, keyed[float64]{int(cid), na.deliveries[cid]})
		}
	}
	for k, lid := range na.ownedLinks {
		link := &na.p.Links[lid]
		used := 0.0
		costs := link.FlowCost.Values()
		for n, i := range link.FlowCost.Flows() {
			used += costs[n] * na.rates[i]
		}
		na.linkPrices[k] = core.LinkPriceStep(na.linkPrices[k], used, link.Capacity, na.cfg.LinkGamma)
		rm.LinkPrices = append(rm.LinkPrices, keyed[float64]{int(lid), na.linkPrices[k]})
	}
}

// deliver sets the delivery rate of each class here for the multirate
// extension: its desired delivery at the node's price, capped by its flow's
// rate — so 0 for a departed flow, whose rate setActive zeroed.
func (na *nodeAgent) deliver() {
	price := na.pricer.Price()
	for _, cid := range na.classes {
		c := &na.p.Classes[cid]
		f := &na.p.Flows[c.Flow]
		d := multirate.DesiredDelivery(c.Utility, c.CostPerConsumer*price, f.RateMin, f.RateMax)
		if r := na.rates[c.Flow]; d > r {
			d = r
		}
		na.deliveries[cid] = d
	}
}

// broadcast sends na.report to every active flow agent and the collector.
// The body is encoded once and the payload shared across all peer messages
// (receivers treat payloads as read-only). As in flowAgent.announce, only a
// closed transport is fatal; lossy-delivery failures are tolerated.
//
// A departed flow is told nothing: the node does not wait for it, so
// nothing would bound what piles up in its inbox, and the one report it
// needs — the latest, to pass its barrier when it rejoins — is what
// setActive sends it then.
func (na *nodeAgent) broadcast() error {
	msg := na.sealReport()
	for k, peer := range na.peerNames {
		if na.inactive[k] {
			continue
		}
		msg.To = peer
		if err := na.ep.Send(msg); errors.Is(err, transport.ErrClosed) {
			return fmt.Errorf("dist: node %d report to %s: %w", na.node, peer, err)
		}
	}
	msg.To = collectorName
	if err := na.ep.Send(msg); errors.Is(err, transport.ErrClosed) {
		return err
	}
	return nil
}

// step computes, broadcasts and observes one round.
func (na *nodeAgent) step(round, lag int) error {
	na.compute(round)
	if err := na.broadcast(); err != nil {
		return err
	}
	na.ep.stepped()
	na.obs.progress(round, lag, len(na.peerNames))
	return nil
}

// absorbRate folds one rate announcement into the node's state: a
// departure, a rejoin (Cluster.JoinFlow's Expect control normally got
// here first; only legal between Run calls, when no rounds are pending),
// or a rate — which a resent or reordered
// older one must not overwrite. Anything but a well-formed announcement of
// an expected flow is ignored.
func (na *nodeAgent) absorbRate(payload []byte) {
	rm, err := decodeRate(payload)
	k, ok := slices.BinarySearch(na.flows, rm.Flow)
	if err != nil || !ok {
		return
	}
	if rm.Active == na.inactive[k] {
		na.setActive(k, rm.Active)
	}
	if rm.Active && rm.Round >= na.latest[k] {
		na.latest[k] = rm.Round
		na.rates[rm.Flow] = rm.Rate
		na.obs.record(EvAbsorb, rm.Round, int64(rm.Flow))
	} else {
		na.obs.record(EvRecv, rm.Round, int64(rm.Flow))
	}
}

// setActive processes the departure or (re)join of the flow at position k.
// A departed flow's rate counts as zero; a rejoining one is sent the
// node's latest report, which it did not get while it was away.
func (na *nodeAgent) setActive(k int, on bool) {
	i := na.flows[k]
	na.inactive[k] = !on
	if !on {
		na.rates[i] = 0
	}
	na.alloc.SetFlowActive(i, on)
	if on && na.report.Round > 0 {
		msg := na.sealReport()
		msg.To = na.peerNames[k]
		_ = na.ep.Send(msg) // a closed transport ends the loop at its next receive
	}
}

// sealReport encodes na.report into a message that still lacks its
// receiver.
func (na *nodeAgent) sealReport() transport.Message {
	return transport.Message{From: na.ep.Name(), Kind: reportKind, Payload: na.out.seal(na.report.appendBinary(na.out.enc[:0]))}
}

// observedLag is the effective staleness of round t's inputs: the gap
// between t and the oldest absorbed rate among active flows.
func (na *nodeAgent) observedLag(t int) int {
	oldest := t
	for k, r := range na.latest {
		if !na.inactive[k] {
			oldest = min(oldest, r)
		}
	}
	return t - oldest
}

// canCompute reports whether round t's inputs satisfy the staleness bound:
// some active flow has reached round t, and no active flow is more than
// `staleness` rounds behind it. At staleness 0 that is the barrier: every
// active flow has announced round t, and its latest rate then is its
// round-t rate, since a flow waits for this node's round-t report before
// it announces t+1.
func (na *nodeAgent) canCompute(t int) bool {
	need := max(t-na.staleness, 1)
	reached := false
	for k, r := range na.latest {
		if na.inactive[k] {
			continue
		}
		if r < need {
			return false
		}
		reached = reached || r >= t
	}
	return reached
}

// handle processes one inbound message, returning false on Stop.
func (na *nodeAgent) handle(m transport.Message) bool {
	switch m.Kind {
	case ctrlKind:
		cm, err := decodeCtrl(m.Payload)
		if err == nil && cm.Expect {
			if k, ok := slices.BinarySearch(na.flows, cm.Flow); ok && na.inactive[k] {
				na.setActive(k, true)
			}
			echoExpect(na.ep, m)
		}
		return err != nil || !cm.Stop
	case rateKind:
		na.absorbRate(m.Payload)
	}
	return true
}

// echoExpect returns an Expect control to its sender once it has taken
// effect. A lost echo is the sender's to repair (it asks again).
func echoExpect(ep transport.Endpoint, m transport.Message) {
	_ = ep.Send(transport.Message{From: ep.Name(), To: m.From, Kind: ctrlKind, Payload: m.Payload})
}

// run is the round loop: the node computes round t as soon as canCompute
// allows, using the latest absorbed rate for each flow, and broadcasts its
// round-t report; a departure may complete pending rounds. While stalled,
// the chirp re-broadcasts the latest report so dropped report frames cannot
// deadlock flows or starve the collector.
func (na *nodeAgent) run() {
	defer close(na.done)
	defer na.ep.detach()
	nextRound := 1
	resend := newChirp(na.resend)
	defer resend.stop()

	for {
		na.ep.idle()
		select {
		case m, ok := <-na.ep.Recv():
			if !ok || !na.handle(m) {
				return
			}
		case <-resend.C:
			if nextRound > 1 {
				if err := na.broadcast(); err != nil {
					return
				}
				na.obs.resend(na.report.Round, resend.wait)
			}
			if resend.stalled() {
				na.obs.backoff()
			}
			continue
		}

		// Price updates are sequential state, so rounds are computed in
		// order; the staleness bound only relaxes which inputs each one
		// needs.
		computed := false
		for na.canCompute(nextRound) {
			if na.step(nextRound, na.observedLag(nextRound)) != nil {
				return
			}
			nextRound++
			computed = true
		}
		if computed {
			resend.progress()
		}
	}
}
