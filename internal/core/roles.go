package core

import "repro/internal/model"

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
	// an Allocate call allocates nothing.
	ranked []classBC
}

// NewNodeAllocator prepares the allocator for node b. All flows are
// initially active.
func NewNodeAllocator(p *model.Problem, ix *model.Index, b model.NodeID) *NodeAllocator {
	active := make([]bool, len(p.Flows))
	for i := range active {
		active[i] = true
	}
	return &NodeAllocator{p: p, ix: ix, node: b, active: active, ranked: make([]classBC, 0, len(ix.ClassesByNode(b)))}
}

// SetFlowActive marks a flow as participating or not (a departed flow's
// classes are forced to zero consumers).
func (na *NodeAllocator) SetFlowActive(i model.FlowID, active bool) {
	na.active[i] = active
}

// Allocate runs the greedy admission for the given rates (full-length
// slice indexed by FlowID), writing populations into consumers (full-length
// slice indexed by ClassID; only this node's classes are written).
func (na *NodeAllocator) Allocate(rates []float64, consumers []int) NodeAllocation {
	res := admitNode(na.p, na.ix, na.node, rates, na.active, consumers, na.ranked, nil, nil, 0)
	return NodeAllocation{Used: res.used, BestUnsatisfied: res.bestUnsatisfied}
}

// NodePriceStep applies the Equation 12 node-price update (see
// nodePriceUpdate) — exported for the distributed node agent.
func NodePriceStep(price, bestBC, used, capacity, gamma1, gamma2 float64) float64 {
	return nodePriceUpdate(price, bestBC, used, capacity, gamma1, gamma2)
}

// LinkPriceStep applies the Equation 13 link-price update — exported for
// the distributed node agent that owns the link.
func LinkPriceStep(price, used, capacity, gamma float64) float64 {
	return linkPriceUpdate(price, used, capacity, gamma)
}

// AdaptiveGamma is the Section 4.2 adaptive stepsize controller, exported
// for the distributed node agent.
type AdaptiveGamma struct {
	g gammaController
}

// NewAdaptiveGamma builds a controller from the engine configuration
// (GammaLiteral is honored).
func NewAdaptiveGamma(cfg Config) *AdaptiveGamma {
	return &AdaptiveGamma{g: newGammaController(cfg.GammaLiteral)}
}

// Observe folds in the latest price-update gap (see PriceGap) and the
// price level it applied to, returning the stepsize for the next update.
func (a *AdaptiveGamma) Observe(gap, price float64) float64 {
	return a.g.observe(gap, price)
}

// PriceGap exposes the controller's input signal for the distributed node
// agent: the distance the Equation 12 update pulls the price.
func PriceGap(price, bestBC, used, capacity float64) float64 {
	return priceGap(price, bestBC, used, capacity)
}

// Value returns the current stepsize without observing anything.
func (a *AdaptiveGamma) Value() float64 {
	return a.g.gamma
}
