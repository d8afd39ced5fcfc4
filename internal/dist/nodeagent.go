package dist

import (
	"slices"

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
	// peers their tally, position for position.
	flows []model.FlowID
	peers peers

	// Dynamic state. report is what compute fills and broadcast sends: the
	// node's latest report, kept for the resend chirp; its round is the
	// last one computed, so the next is one past it.
	rates     []float64
	consumers []int
	report    reportMsg
	out       outbox
	staleness int // how many rounds behind a flow's rate may be

	obs *sink // flight recorder and metrics (nil = both off)

	done chan struct{}
}

// ownedLinks lists the links each node owns, ascending: those whose To
// endpoint it is.
func ownedLinks(p *model.Problem) [][]model.LinkID {
	owned := make([][]model.LinkID, len(p.Nodes))
	for l := range p.Links {
		to := p.Links[l].To
		owned[to] = append(owned[to], model.LinkID(l))
	}
	return owned
}

// newNodeAgent builds node b's agent, which owns the links owned.
func newNodeAgent(p *model.Problem, ix *model.Index, b model.NodeID, owned []model.LinkID, c Config) *nodeAgent {
	cfg := c.Core
	na := &nodeAgent{
		p:          p,
		node:       b,
		cfg:        cfg,
		alloc:      core.NewNodeAllocator(p, ix, b),
		pricer:     core.NewNodePricer(cfg),
		classes:    ix.ClassesByNode(b),
		ownedLinks: owned,
		linkPrices: make([]float64, len(owned)), // prices start at zero, as the engine's do
		flows:      slices.Clone(ix.FlowsByNode(b)),
		rates:      make([]float64, len(p.Flows)),
		consumers:  make([]int, len(p.Classes)),
		staleness:  c.Staleness,
		done:       make(chan struct{}),
	}
	for _, l := range owned {
		na.flows = append(na.flows, ix.FlowsByLink(l)...)
	}
	slices.Sort(na.flows)
	na.flows = slices.Compact(na.flows)
	names := make([]string, len(na.flows))
	for k, i := range na.flows {
		names[k] = flowName(i)
	}
	na.peers = newPeers(names)
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

// broadcast sends na.report to every active flow agent and the
// collector, the body encoded once.
func (na *nodeAgent) broadcast() error {
	return na.peers.send(na.ep, na.sealReport())
}

// advance computes every round whose inputs satisfy the staleness bound,
// using the latest absorbed rate of each flow, and broadcasts each
// round's report. Price updates are sequential state, so rounds are
// computed in order; the bound only relaxes which inputs each one needs.
func (na *nodeAgent) advance() (bool, error) {
	computed := false
	for t := na.report.Round + 1; na.canCompute(t); t++ {
		na.compute(t)
		if err := na.broadcast(); err != nil {
			return computed, err
		}
		na.ep.stepped()
		na.obs.progress(t, na.peers.lag(t), len(na.peers.names))
		computed = true
	}
	return computed, nil
}

// chirp re-broadcasts the latest report, so that dropped report frames
// cannot deadlock flows or starve the collector.
func (na *nodeAgent) chirp() (int, error) {
	if na.report.Round == 0 {
		return 0, nil
	}
	return na.report.Round, na.broadcast()
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
	if rm.Active == na.peers.inactive[k] {
		na.setActive(k, rm.Active)
	}
	if rm.Active && rm.Round >= na.peers.latest[k] {
		na.peers.latest[k] = rm.Round
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
	na.peers.inactive[k] = !on
	if !on {
		na.rates[i] = 0
	}
	na.alloc.SetFlowActive(i, on)
	if on && na.report.Round > 0 {
		msg := na.sealReport()
		msg.To = na.peers.names[k]
		_ = na.ep.Send(msg) // a closed transport ends the loop at its next receive
	}
}

// sealReport encodes na.report into a message that still lacks its
// receiver.
func (na *nodeAgent) sealReport() transport.Message {
	return transport.Message{From: na.ep.Name(), Kind: reportKind, Payload: na.out.seal(na.report.appendBinary(na.out.enc[:0]))}
}

// canCompute reports whether round t's inputs satisfy the staleness bound:
// some active flow has reached round t, and no active flow is more than
// `staleness` rounds behind it. At staleness 0 that is the barrier: every
// active flow has announced round t, and its latest rate then is its
// round-t rate, since a flow waits for this node's round-t report before
// it announces t+1.
func (na *nodeAgent) canCompute(t int) bool {
	return na.peers.newest() >= t && na.peers.oldest() >= max(t-na.staleness, 1)
}

// handle processes one inbound message, returning false on Stop.
func (na *nodeAgent) handle(m transport.Message) bool {
	switch m.Kind {
	case ctrlKind:
		cm, err := decodeCtrl(m.Payload)
		if err == nil && cm.Expect {
			if k, ok := slices.BinarySearch(na.flows, cm.Flow); ok && na.peers.inactive[k] {
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
