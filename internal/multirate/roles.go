package multirate

import (
	"repro/internal/model"
	"repro/internal/solver"
)

// The flow-source role of multirate LRGP, exported for the distributed
// runtime (and used by this package's Engine), mirroring core.RateAllocator.
// The node role is core's: core.NodeAllocator admits at the classes'
// delivery rates and core.NodePricer prices the node.

// SourceRateSolver is the flow-source half: it owns one flow's source-rate
// stationarity condition over the classes whose desired delivery the
// source rate caps.
type SourceRateSolver struct {
	p       *model.Problem
	flow    model.Flow
	classes []model.ClassID
}

// NewSourceRateSolver prepares the solver for flow fid.
func NewSourceRateSolver(p *model.Problem, ix *model.Index, fid model.FlowID) *SourceRateSolver {
	return &SourceRateSolver{
		p:       p,
		flow:    p.Flows[fid],
		classes: ix.ClassesByFlow(fid),
	}
}

// Rate solves sum over capped classes of n_j U_j'(r) = price, where a
// class is capped when its desired delivery (full-length slice indexed by
// ClassID) is at least r. price is the consumer-independent path price
// (F at nodes plus L at links).
func (s *SourceRateSolver) Rate(consumers []int, desired []float64, price float64) float64 {
	f := s.flow
	marginal := func(r float64) float64 {
		sum := 0.0
		for _, cid := range s.classes {
			if consumers[cid] == 0 || desired[cid] < r {
				continue
			}
			sum += float64(consumers[cid]) * s.p.Classes[cid].Utility.Deriv(r)
		}
		return sum
	}

	total := 0
	for _, cid := range s.classes {
		total += consumers[cid]
	}
	if total == 0 {
		return f.RateMin
	}
	if price <= 0 {
		return f.RateMax
	}
	if marginal(f.RateMin) <= price {
		return f.RateMin
	}
	if marginal(f.RateMax) >= price {
		return f.RateMax
	}
	// marginal(r) is decreasing but only piecewise-continuous (classes
	// drop out as r passes their desired delivery), so bisection on the
	// sign change remains valid.
	r, err := solver.Bisect(func(x float64) float64 {
		return marginal(x) - price
	}, f.RateMin, f.RateMax)
	if err != nil {
		return f.RateMin
	}
	return r
}
