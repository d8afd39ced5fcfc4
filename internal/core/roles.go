package core

import (
	"slices"

	"repro/internal/model"
)

// Per-role primitives of LRGP, exported for the distributed runtime
// (package dist) so the message-passing agents execute exactly the same
// arithmetic as the in-process Engine.

// RateAllocator is the flow-source half of Algorithm 1: it owns one flow's
// rate computation.
type RateAllocator struct {
	rs *rateSolver
}

// NewRateAllocator prepares the allocator for flow fid.
func NewRateAllocator(p *model.Problem, ix *model.Index, fid model.FlowID) *RateAllocator {
	return &RateAllocator{rs: newRateSolver(p, ix, fid)}
}

// Rate returns the Equation 7 maximizer given the populations (full-length
// slice indexed by ClassID; only this flow's classes are read) and the
// aggregate path price P = PL_i + PB_i.
func (ra *RateAllocator) Rate(consumers []int, price float64) float64 {
	return ra.rs.solve(consumers, price)
}

// NodeAllocation is the outcome of one node's greedy consumer allocation.
type NodeAllocation struct {
	// Used is used_b(t): total node resource consumed.
	Used float64
	// BestUnsatisfied is BC(b,t) of Equation 11 (0 when all classes are
	// fully admitted).
	BestUnsatisfied float64
}

// NodeAllocator is the node half of Algorithm 2: greedy admission for the
// classes attached at one node.
type NodeAllocator struct {
	p      *model.Problem
	ix     *model.Index
	node   model.NodeID
	active []bool
	// ranked is admitNode's scratch, sized once for the node's classes so
	// an Allocate call allocates nothing; rank carries the node's ranking
	// between calls, as the Engine's does, in room for this node alone.
	ranked []classBC
	rank   ranking
}

// NewNodeAllocator prepares the allocator for node b. All flows are
// initially active.
func NewNodeAllocator(p *model.Problem, ix *model.Index, b model.NodeID) *NodeAllocator {
	active := make([]bool, len(p.Flows))
	for i := range active {
		active[i] = true
	}
	classes := ix.ClassesByNode(b)
	rank := ranking{order: slices.Clone(classes), at: make([]model.ClassID, len(classes))}
	for k := range rank.at {
		rank.at[k] = model.ClassID(k)
	}
	return &NodeAllocator{p: p, ix: ix, node: b, active: active,
		ranked: make([]classBC, 0, len(classes)), rank: rank}
}

// SetFlowActive marks a flow as participating or not (a departed flow's
// classes are forced to zero consumers).
func (na *NodeAllocator) SetFlowActive(i model.FlowID, active bool) {
	na.active[i] = active
}

// Allocate runs the greedy admission for the given rates (full-length
// slice indexed by FlowID), writing populations into consumers (full-length
// slice indexed by ClassID; only this node's classes are written).
// delivery, when non-nil, is each class's delivery rate (indexed by
// ClassID), at which it is valued and charged per consumer — the multirate
// extension's d_j; nil delivers every class at its flow's rate.
func (na *NodeAllocator) Allocate(rates, delivery []float64, consumers []int) NodeAllocation {
	res := admitNode(na.p, na.ix, na.node, rates, delivery, na.active, consumers, na.ranked, &na.rank, nil, nil, 0)
	return NodeAllocation{Used: res.used, BestUnsatisfied: res.bestUnsatisfied}
}

// NodePricer is the price half of Algorithm 2 for one node: the node's
// Equation 12 price and the stepsize that moves it — Config.Gamma,
// or under Config.Adaptive the Section 4.2 heuristic on a one-node
// gammaBank, the state and transition the Engine's price sweep runs for
// every node. The distributed node agent and the multirate engine own one
// per node.
type NodePricer struct {
	price    float64
	gamma    float64
	adaptive *gammaBank // nil for a fixed stepsize
}

// NewNodePricer starts a node at price zero under cfg, normalized as
// NewEngine normalizes it.
func NewNodePricer(cfg Config) *NodePricer {
	c := cfg.normalized()
	np := &NodePricer{gamma: c.Gamma}
	if c.Adaptive {
		np.adaptive = newGammaBank(c.GammaLiteral, 1)
	}
	return np
}

// Update applies Equation 12 to one admission at a node of the given
// capacity, folds the update's gap into the adaptive stepsize, and returns
// the new price.
func (np *NodePricer) Update(out NodeAllocation, capacity float64) float64 {
	prev, gamma := np.price, np.gamma
	if g := np.adaptive; g != nil {
		gamma = g.val[0]
		g.observe(0, priceGap(prev, out.BestUnsatisfied, out.Used, capacity), prev)
	}
	np.price = nodePriceUpdate(prev, out.BestUnsatisfied, out.Used, capacity, gamma)
	return np.price
}

// Price returns the node's current price.
func (np *NodePricer) Price() float64 {
	return np.price
}

// LinkPriceStep applies the Equation 13 link-price update — exported for
// the distributed node agent that owns the link.
func LinkPriceStep(price, used, capacity, gamma float64) float64 {
	return linkPriceUpdate(price, used, capacity, gamma)
}
