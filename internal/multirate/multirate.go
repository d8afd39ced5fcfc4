// Package multirate extends LRGP to multirate dissemination, the future
// work the paper defers in Section 5: consumers of different classes of
// the same flow may receive the stream at different (thinned) rates.
//
// Each class j of flow i is assigned a delivery rate d_j with
// r_i^min <= d_j <= r_i: thinning happens at the attachment node (the
// broker's per-class rate caps enact it), so links and consumer-
// independent node work are still driven by the source rate r_i, while
// per-consumer node work scales with the class's own delivery rate:
//
//	objective:  max  sum_i sum_j n_j * U_j(d_j)
//	node b:     sum_i (F_{b,i} r_i + sum_j G_{b,j} n_j d_j) <= c_b
//	link l:     sum_i L_{l,i} r_i <= c_l
//	bounds:     r_i in [r^min, r^max],  d_j in [r^min, r_i]
//
// Single-rate LRGP is the special case d_j = r_i, so the multirate
// optimum dominates the single-rate optimum on every instance. A solution
// is a model.Allocation whose Delivery holds the d_j, and model's
// TotalUtility, NodeUsage and CheckFeasible evaluate it.
//
// The algorithm mirrors LRGP's structure:
//
//  1. Delivery rates: each class solves U_j'(d_j) = G_{b,j} * p_b — the
//     consumer's marginal utility equals its marginal per-consumer cost
//     at its node's price — clamped to [r^min, r_i].
//  2. Source rates: each flow solves
//     sum_{j: d*_j >= r} n_j U_j'(r) = PF_i + PL_i,
//     where the left side sums only the classes whose desired delivery
//     rate is capped by the source rate (uncapped classes gain nothing
//     from raising r), and the right side prices the consumer-independent
//     resources (F at nodes, L at links).
//  3. Populations and prices: LRGP's own greedy admission
//     (core.NodeAllocator) at the delivery rates d_j = min(d*_j, r_i), so
//     per-consumer cost G_{b,j} * d_j, and its Equation 12/13 price
//     updates (core.NodePricer, core.LinkPriceStep).
package multirate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/utility"
)

// Engine runs synchronous multirate-LRGP iterations.
type Engine struct {
	p   *model.Problem
	ix  *model.Index
	cfg core.Config

	iteration   int
	sourceRates []float64
	delivery    []float64
	desired     []float64 // d*_j before the r_i cap
	consumers   []int

	linkPrices []float64

	solvers []*SourceRateSolver
	allocs  []*core.NodeAllocator
	pricers []*core.NodePricer
}

// NewEngine validates the problem and prepares a multirate engine.
func NewEngine(p *model.Problem, cfg core.Config) (*Engine, error) {
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("multirate: %w", err)
	}
	c, err := cfg.WithDefaults()
	if err != nil {
		return nil, fmt.Errorf("multirate: %w", err)
	}
	e := &Engine{
		p:           p,
		ix:          model.NewIndex(p),
		cfg:         c,
		sourceRates: make([]float64, len(p.Flows)),
		delivery:    make([]float64, len(p.Classes)),
		desired:     make([]float64, len(p.Classes)),
		consumers:   make([]int, len(p.Classes)),
		linkPrices:  make([]float64, len(p.Links)),
	}
	for i, f := range p.Flows {
		e.sourceRates[i] = f.RateMin
		e.solvers = append(e.solvers, NewSourceRateSolver(p, e.ix, model.FlowID(i)))
	}
	for j, cl := range p.Classes {
		e.delivery[j] = p.Flows[cl.Flow].RateMin
	}
	for b := range p.Nodes {
		e.allocs = append(e.allocs, core.NewNodeAllocator(p, e.ix, model.NodeID(b)))
		e.pricers = append(e.pricers, core.NewNodePricer(c))
	}
	return e, nil
}

// Step performs one multirate iteration and returns the utility after it.
func (e *Engine) Step() float64 {
	e.iteration++

	// 1. Desired delivery rates per class from the marginal condition
	// U_j'(d) = G_j * p_b.
	for j := range e.p.Classes {
		c := &e.p.Classes[j]
		f := e.p.Flows[c.Flow]
		price := c.CostPerConsumer * e.pricers[c.Node].Price()
		e.desired[j] = desiredDelivery(c.Utility, price, f.RateMin, f.RateMax)
	}

	// 2. Source rate per flow from the capped-classes stationarity
	// condition, against the consumer-independent path price.
	for i := range e.p.Flows {
		e.sourceRates[i] = e.solvers[i].Rate(e.consumers, e.desired, e.pathPrice(model.FlowID(i)))
	}

	// 3. Delivery rates d_j = min(d*_j, r_i), then greedy admission at
	// per-consumer cost G_j * d_j and the Equation 12 price update.
	for j := range e.p.Classes {
		d, r := e.desired[j], e.sourceRates[e.p.Classes[j].Flow]
		if d > r {
			d = r
		}
		e.delivery[j] = d
	}
	for b, na := range e.allocs {
		e.pricers[b].Update(na.Allocate(e.sourceRates, e.delivery, e.consumers), e.p.Nodes[b].Capacity)
	}

	// 4. Link prices on source rates.
	for l := range e.p.Links {
		lid := model.LinkID(l)
		used := 0.0
		for _, i := range e.ix.FlowsByLink(lid) {
			used += e.p.Links[l].FlowCost[i] * e.sourceRates[i]
		}
		e.linkPrices[l] = core.LinkPriceStep(e.linkPrices[l], used, e.p.Links[l].Capacity, e.cfg.LinkGamma)
	}

	return e.Utility()
}

// DesiredDelivery solves the per-class marginal condition U'(d) = price
// on [dmin, dmax] — the delivery rate a class would pick if the source
// rate did not cap it. Exported for the distributed runtime.
func DesiredDelivery(u utility.Function, price, dmin, dmax float64) float64 {
	return desiredDelivery(u, price, dmin, dmax)
}

// desiredDelivery solves U'(d) = price on [dmin, dmax].
func desiredDelivery(u utility.Function, price, dmin, dmax float64) float64 {
	if price <= 0 {
		return dmax
	}
	if u.Deriv(dmin) <= price {
		return dmin
	}
	if u.Deriv(dmax) >= price {
		return dmax
	}
	if inv, ok := u.(utility.DerivInverter); ok {
		d := inv.InvDeriv(price)
		if d < dmin {
			return dmin
		}
		if d > dmax {
			return dmax
		}
		return d
	}
	d, err := solver.Bisect(func(x float64) float64 {
		return u.Deriv(x) - price
	}, dmin, dmax)
	if err != nil {
		return dmin
	}
	return d
}

// pathPrice is the consumer-independent path price for flow i:
// sum L*p_l over its links plus sum F*p_b over its nodes.
func (e *Engine) pathPrice(i model.FlowID) float64 {
	price := 0.0
	for _, l := range e.ix.LinksByFlow(i) {
		price += e.p.Links[l].FlowCost[i] * e.linkPrices[l]
	}
	for _, b := range e.ix.NodesByFlow(i) {
		price += e.p.Nodes[b].FlowCost[i] * e.pricers[b].Price()
	}
	return price
}

// Utility returns the current objective value.
func (e *Engine) Utility() float64 {
	return model.TotalUtility(e.p, e.state())
}

// Allocation snapshots the current state.
func (e *Engine) Allocation() model.Allocation {
	return e.state().Clone()
}

// state is the engine's current allocation, sharing its slices.
func (e *Engine) state() model.Allocation {
	return model.Allocation{Rates: e.sourceRates, Consumers: e.consumers, Delivery: e.delivery}
}

// Result mirrors core.Result for the multirate engine.
type Result struct {
	Utility     float64
	Iterations  int
	Converged   bool
	ConvergedAt int
	Allocation  model.Allocation
	Trace       []float64
}

// Solve runs until the paper's 0.1% amplitude rule or maxIter.
func (e *Engine) Solve(maxIter int) Result {
	if maxIter <= 0 {
		maxIter = 250
	}
	det := metrics.NewConvergenceDetector(0, 0)
	trace := make([]float64, 0, maxIter)
	for t := 0; t < maxIter; t++ {
		u := e.Step()
		trace = append(trace, u)
		if det.Observe(u) {
			break
		}
	}
	return Result{
		Utility:     trace[len(trace)-1],
		Iterations:  len(trace),
		Converged:   det.Converged(),
		ConvergedAt: det.ConvergedAt(),
		Allocation:  e.Allocation(),
		Trace:       trace,
	}
}
