package dist

import (
	"slices"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/transport"
)

// flowAgent runs Algorithm 1 for one flow at its source node (or, in
// multirate mode, the capped-classes source-rate solver).
type flowAgent struct {
	p    *model.Problem
	flow model.FlowID
	ep   *hostPort
	ra   *core.RateAllocator
	// mr is non-nil in multirate mode and replaces ra; desired is its
	// per-class scratch.
	mr      *multirate.SourceRateSolver
	desired []float64

	// Static path structure, in the index's ascending id order: B_i with
	// the flow's cost and its classes at each node, L_i with the flow's
	// cost on each link. classesAt is in ascending class-id order, so the
	// Equation 9 coefficient sum has a fixed float association order.
	nodes     []model.NodeID
	nodeCost  []float64
	classesAt [][]classTerm
	links     []model.LinkID
	linkCost  []float64
	// peerNodes are the node agents to exchange with — B_i plus the owners
	// of L_i, ascending — and peers their tally, position for position.
	peerNodes []model.NodeID
	peers     peers

	// Dynamic state. nodePrice and linkPrice follow nodes and links.
	// report is the decode scratch every inbound report lands in. round is
	// the next round to announce; lastRound and lastRate are the freshest
	// active announcement, which a chirp repeats.
	consumers []int
	nodePrice []priceWindow
	linkPrice []priceWindow
	report    reportMsg
	out       outbox
	round     int
	runUntil  int
	lastRound int
	lastRate  float64
	leaving   bool
	idle      bool // departed but able to rejoin
	staleness int  // how many rounds behind a peer's report may be

	obs *sink // flight recorder and metrics (nil = both off)

	done chan struct{}
}

type classTerm struct {
	cid  model.ClassID
	cost float64 // G_{b,j}
}

// priceWindowSize is how many recent prices a flow source averages per
// resource when its inputs may be stale (Section 3.5): Staleness > 0. The
// barrier schedule uses the latest price only.
const priceWindowSize = 3

// priceWindow keeps the last w prices from one resource and serves their
// average (Section 3.5's smoothing; w=1 reduces to "latest").
type priceWindow struct {
	vals []float64
	next int
	n    int
}

// newPriceWindow returns a window of w prices, seeded with the given ones.
func newPriceWindow(w int, seed ...float64) priceWindow {
	pw := priceWindow{vals: make([]float64, max(w, 1))}
	for _, v := range seed {
		pw.push(v)
	}
	return pw
}

func (pw *priceWindow) push(v float64) {
	pw.vals[pw.next] = v
	pw.next = (pw.next + 1) % len(pw.vals)
	if pw.n < len(pw.vals) {
		pw.n++
	}
}

func (pw *priceWindow) avg() float64 {
	if pw.n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < pw.n; i++ {
		sum += pw.vals[i]
	}
	return sum / float64(pw.n)
}

func newFlowAgent(p *model.Problem, ix *model.Index, fid model.FlowID, c Config) *flowAgent {
	fa := &flowAgent{
		p:         p,
		flow:      fid,
		ra:        core.NewRateAllocator(p, ix, fid),
		nodes:     ix.NodesByFlow(fid),
		nodeCost:  ix.NodeCostsByFlow(fid),
		links:     ix.LinksByFlow(fid),
		linkCost:  ix.LinkCostsByFlow(fid),
		consumers: make([]int, len(p.Classes)),
		round:     1,
		staleness: c.Staleness,
		done:      make(chan struct{}),
	}
	fa.peerNodes = slices.Clone(fa.nodes)
	window := priceWindowSize
	if c.Staleness == 0 {
		window = 1
	}
	for _, cids := range ix.ClassesByFlowNode(fid) {
		terms := make([]classTerm, len(cids))
		for k, cid := range cids {
			terms[k] = classTerm{cid: cid, cost: p.Classes[cid].CostPerConsumer}
		}
		fa.classesAt = append(fa.classesAt, terms)
		fa.nodePrice = append(fa.nodePrice, newPriceWindow(window, 0))
	}
	for _, l := range fa.links {
		fa.linkPrice = append(fa.linkPrice, newPriceWindow(window, 0))
		fa.peerNodes = append(fa.peerNodes, p.Links[l].To)
	}
	slices.Sort(fa.peerNodes)
	fa.peerNodes = slices.Compact(fa.peerNodes)
	names := make([]string, len(fa.peerNodes))
	for k, b := range fa.peerNodes {
		names[k] = nodeName(b)
	}
	fa.peers = newPeers(names)
	if c.Multirate {
		fa.mr = multirate.NewSourceRateSolver(p, ix, fid)
		fa.desired = make([]float64, len(p.Classes))
	}
	return fa
}

// computeRate runs the mode-appropriate source-rate allocation from the
// agent's absorbed state.
func (fa *flowAgent) computeRate() float64 {
	if fa.mr == nil {
		return fa.ra.Rate(fa.consumers, fa.pathPrice())
	}
	// Multirate: consumer-independent path price, plus locally computed
	// desired deliveries from each class's node price.
	price := fa.linkPathPrice()
	f := fa.p.Flows[fa.flow]
	for k := range fa.nodes {
		nodePrice := fa.nodePrice[k].avg()
		price += fa.nodeCost[k] * nodePrice
		for _, ct := range fa.classesAt[k] {
			fa.desired[ct.cid] = multirate.DesiredDelivery(fa.p.Classes[ct.cid].Utility, ct.cost*nodePrice, f.RateMin, f.RateMax)
		}
	}
	return fa.mr.Rate(fa.consumers, fa.desired, price)
}

// linkPathPrice is PL_i (Equation 8) from the current (averaged) prices.
func (fa *flowAgent) linkPathPrice() float64 {
	price := 0.0
	for k := range fa.links {
		price += fa.linkCost[k] * fa.linkPrice[k].avg()
	}
	return price
}

// pathPrice computes PL_i + PB_i (Equations 8 and 9) from the current
// (averaged) prices and populations.
func (fa *flowAgent) pathPrice() float64 {
	price := fa.linkPathPrice()
	for k := range fa.nodes {
		coeff := fa.nodeCost[k]
		for _, ct := range fa.classesAt[k] {
			coeff += ct.cost * float64(fa.consumers[ct.cid])
		}
		price += coeff * fa.nodePrice[k].avg()
	}
	return price
}

// absorb decodes one node report into the agent's scratch and folds it
// into local state — unless it is no newer than what that peer already
// reported: resent duplicates and out-of-order stragglers must not push
// into the price windows twice. One recorder event per frame: absorb when
// accepted (an absorb implies the receive), recv when rejected.
func (fa *flowAgent) absorb(payload []byte) {
	rm := &fa.report
	if decodeReport(payload, rm) != nil {
		return
	}
	peer, ok := slices.BinarySearch(fa.peerNodes, rm.Node)
	if !ok || rm.Round <= fa.peers.latest[peer] {
		fa.obs.record(EvRecv, rm.Round, int64(rm.Node))
		return
	}
	fa.peers.latest[peer] = rm.Round
	fa.obs.record(EvAbsorb, rm.Round, int64(rm.Node))
	if k, ok := slices.BinarySearch(fa.nodes, rm.Node); ok {
		fa.nodePrice[k].push(rm.Price)
	}
	for _, e := range rm.Populations {
		if e.ID < len(fa.consumers) && fa.p.Classes[e.ID].Flow == fa.flow {
			fa.consumers[e.ID] = e.Val
		}
	}
	for _, e := range rm.LinkPrices {
		if k, ok := slices.BinarySearch(fa.links, model.LinkID(e.ID)); ok {
			fa.linkPrice[k].push(e.Val)
		}
	}
}

// announce sends the flow's rate for the given round to every peer node
// agent and the collector, the body encoded once.
func (fa *flowAgent) announce(round int, rate float64, active bool) error {
	body := rateMsg{Round: round, Flow: fa.flow, Rate: rate, Active: active}
	msg := transport.Message{From: fa.ep.Name(), Kind: rateKind, Payload: fa.out.seal(body.appendBinary(fa.out.enc[:0]))}
	if err := fa.peers.send(fa.ep, msg); err != nil {
		return err
	}
	fa.ep.stepped()
	return nil
}

// advance announces every round the staleness bound permits: round t as
// soon as every peer's freshest report is at most `staleness` rounds
// behind round t-1 — at staleness 0 the barrier, the full round t-1 report
// set. A Leave control makes it announce departure and idle; an idle agent
// tracks the cluster's round counter passively, so that a later Join
// resumes it at the right round, where each peer node sends it the report
// of the round before (nodeAgent.setActive).
func (fa *flowAgent) advance() (bool, error) {
	announced := false
	for !fa.idle && fa.round <= fa.runUntil && fa.canAnnounce() {
		rate := fa.computeRate()
		if err := fa.announce(fa.round, rate, true); err != nil {
			return announced, err
		}
		fa.obs.progress(fa.round, fa.peers.lag(fa.round-1), len(fa.peers.names))
		fa.lastRound, fa.lastRate = fa.round, rate
		fa.round++
		announced = true
	}
	if fa.leaving {
		fa.leaving = false
		if !fa.idle {
			_ = fa.announce(fa.round, 0, false) // a closed transport ends the loop at its next receive
			fa.idle = true
		}
	}
	if fa.idle {
		fa.round = max(fa.round, fa.runUntil+1)
	}
	return announced, nil
}

// chirp re-announces the freshest rate, so that peers (and the collector)
// that lost the original frame can catch up.
func (fa *flowAgent) chirp() (int, error) {
	if fa.lastRound == 0 || fa.idle {
		return 0, nil
	}
	return fa.lastRound, fa.announce(fa.lastRound, fa.lastRate, true)
}

// canAnnounce reports whether the staleness bound permits announcing
// fa.round: every peer node's freshest absorbed report must be no older
// than round-1-staleness. Round 1 is unconditional (there is nothing to
// be stale against), and a flow without peers waits for nobody.
func (fa *flowAgent) canAnnounce() bool {
	return fa.round == 1 || fa.peers.oldest() >= max(fa.round-1-fa.staleness, 1)
}

// handle processes one inbound message, returning false on Stop.
func (fa *flowAgent) handle(m transport.Message) bool {
	switch m.Kind {
	case ctrlKind:
		cm, err := decodeCtrl(m.Payload)
		if err != nil {
			return true
		}
		if cm.Stop {
			return false
		}
		if cm.Leave && !fa.idle {
			fa.leaving = true
		}
		if cm.Join && fa.idle {
			fa.idle = false
			fa.round = max(fa.round, fa.runUntil+1)
		}
		fa.runUntil = max(fa.runUntil, cm.RunUntil)
	case reportKind:
		fa.absorb(m.Payload)
	}
	return true
}
