package core

import (
	"math"

	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/utility"
)

// Rate allocation (Algorithm 1). Given populations n_j and prices, each
// flow source maximizes the strictly concave objective of Equation 7,
//
//	phi(r) = sum_{j in C_i} n_j U_j(r) - r * P,   P = PL_i + PB_i,
//
// over [r^min, r^max]. The stationarity condition sum_j n_j U_j'(r) = P has
// a closed form when the flow's classes share a utility family (the paper's
// workloads always do); otherwise the engine bisects the strictly
// decreasing marginal-utility sum.

// rateFamily classifies a flow's classes for the closed-form fast path.
type rateFamily int

const (
	// famGeneral uses bisection.
	famGeneral rateFamily = iota + 1
	// famLog: every class is utility.Log with a common Shift.
	famLog
	// famPower: every class is utility.Power with a common Exponent.
	famPower
)

// rateSolver computes the Algorithm 1 rate for one flow.
type rateSolver struct {
	fid     model.FlowID
	flow    model.Flow
	classes []model.ClassID
	// utilities[k] is the utility of classes[k].
	utilities []utility.Function

	family rateFamily
	// shift is the common Log shift (famLog).
	shift float64
	// exponent is the common Power exponent (famPower).
	exponent float64
	// scales[k] is the rank/scale of classes[k] (famLog/famPower).
	scales []float64
	// cached reports that bind proved every class of the flow to be
	// Scale_j * g(r) for one g (famLog or famPower), so boundPow and the
	// engine's flow-basis cache may stand in for the per-class interface
	// calls. Tests clear it to get the interface-call oracle.
	cached bool
	// boundPow is math.Pow(r^min, k-1), math.Pow(r^max, k-1) for famPower:
	// the one transcendental the two saturation tests of solve share
	// across the flow's classes. bind always rewrites it — the exponent can
	// change at unchanged bounds.
	boundPow [2]float64

	// bisectFn is built on first use and reused so the famGeneral path
	// does not allocate a closure per solve; bisectConsumers and
	// bisectPrice carry its arguments for the duration of one Bisect
	// call. A solver belongs to one flow and is driven by one goroutine
	// at a time, so the reuse is race-free.
	bisectFn        func(float64) float64
	bisectConsumers []int
	bisectPrice     float64
}

// newRateSolver inspects the classes of one flow and prepares the
// appropriate solving strategy.
func newRateSolver(p *model.Problem, ix *model.Index, fid model.FlowID) *rateSolver {
	classIDs := ix.ClassesByFlow(fid)
	rs := &rateSolver{
		fid:       fid,
		classes:   classIDs,
		utilities: make([]utility.Function, len(classIDs)),
		scales:    make([]float64, len(classIDs)),
	}
	rs.bind(p)
	return rs
}

// bind (re)targets the solver at p's current flow bounds and class
// utilities, re-running the family classification into the existing
// slices. Engine.Reset uses it to warm-start onto a refreshed problem
// without reallocating; the class list must be unchanged (Index.Refresh
// guarantees that).
func (rs *rateSolver) bind(p *model.Problem) {
	rs.flow = p.Flows[rs.fid]
	for k, cid := range rs.classes {
		rs.utilities[k] = p.Classes[cid].Utility
	}

	rs.family = famGeneral
	rs.shift, rs.exponent = 0, 0
	rs.cached = false
	if len(rs.classes) == 0 {
		return
	}
	switch first := rs.utilities[0].(type) {
	case utility.Log:
		rs.family, rs.shift = famLog, first.Shift
		for k, fn := range rs.utilities {
			u, ok := fn.(utility.Log)
			if !ok || u.Shift != first.Shift {
				rs.family = famGeneral
				break
			}
			rs.scales[k] = u.Scale
		}
	case utility.Power:
		rs.family, rs.exponent = famPower, first.Exponent
		for k, fn := range rs.utilities {
			u, ok := fn.(utility.Power)
			if !ok || u.Exponent != first.Exponent {
				rs.family = famGeneral
				break
			}
			rs.scales[k] = u.Scale
		}
	}
	rs.cached = rs.family != famGeneral
	if rs.family == famPower {
		rs.boundPow = [2]float64{
			math.Pow(rs.flow.RateMin, rs.exponent-1),
			math.Pow(rs.flow.RateMax, rs.exponent-1),
		}
	}
}

// solve returns the rate maximizing Equation 7 for the given populations
// (indexed like the whole problem's class slice) and aggregate price P.
func (rs *rateSolver) solve(consumers []int, price float64) float64 {
	rmin, rmax := rs.flow.RateMin, rs.flow.RateMax

	total := 0
	for _, cid := range rs.classes {
		total += consumers[cid]
	}
	if total == 0 {
		// phi(r) = -r*P is maximized at the lowest allowed rate (P >= 0).
		return rmin
	}
	if price <= 0 {
		// No congestion anywhere on the path: utility is increasing in r.
		return rmax
	}

	// Marginal utility at the bounds decides saturation.
	if rs.marginalAtBound(consumers, 0) <= price {
		return rmin
	}
	if rs.marginalAtBound(consumers, 1) >= price {
		return rmax
	}

	switch rs.family {
	case famLog:
		// A/(shift+r) = P  =>  r = A/P - shift.
		a := rs.weightedScale(consumers)
		return clamp(a/price-rs.shift, rmin, rmax)
	case famPower:
		// A*k*r^(k-1) = P  =>  r = (P/(A*k))^(1/(k-1)).
		a := rs.weightedScale(consumers)
		r := math.Pow(price/(a*rs.exponent), 1/(rs.exponent-1))
		return clamp(r, rmin, rmax)
	default:
		if rs.bisectFn == nil {
			rs.bisectFn = func(r float64) float64 {
				return rs.marginal(rs.bisectConsumers, r) - rs.bisectPrice
			}
		}
		rs.bisectConsumers, rs.bisectPrice = consumers, price
		r, err := solver.Bisect(rs.bisectFn, rmin, rmax)
		rs.bisectConsumers = nil
		if err != nil {
			// The bracketing checks above guarantee a sign change; this
			// is unreachable, but degrade to the safe lower bound.
			return rmin
		}
		return r
	}
}

// marginal returns sum_j n_j U_j'(r).
func (rs *rateSolver) marginal(consumers []int, r float64) float64 {
	sum := 0.0
	for k, cid := range rs.classes {
		if n := consumers[cid]; n > 0 {
			sum += float64(n) * rs.utilities[k].Deriv(r)
		}
	}
	return sum
}

// marginalAtBound is marginal at r^min (hi = 0) or r^max (hi = 1). For a
// cached flow each term is the expression the class's Deriv evaluates —
// Scale/(Shift+r) for Log, Scale*Exponent*r^(Exponent-1) for Power, in
// that association — with the part the classes share computed once, so the
// sum is the same float.
func (rs *rateSolver) marginalAtBound(consumers []int, hi int) float64 {
	r := rs.flow.RateMin
	if hi == 1 {
		r = rs.flow.RateMax
	}
	if !rs.cached {
		return rs.marginal(consumers, r)
	}
	sum := 0.0
	if rs.family == famLog {
		d := rs.shift + r
		for k, cid := range rs.classes {
			if n := consumers[cid]; n > 0 {
				sum += float64(n) * (rs.scales[k] / d)
			}
		}
		return sum
	}
	pw := rs.boundPow[hi]
	for k, cid := range rs.classes {
		if n := consumers[cid]; n > 0 {
			sum += float64(n) * (rs.scales[k] * rs.exponent * pw)
		}
	}
	return sum
}

// basis returns g(r), the factor every class utility of a cached flow
// shares — U_j(r) = Scale_j * g(r) — and NaN for a flow that has none.
func (rs *rateSolver) basis(r float64) float64 {
	switch {
	case !rs.cached:
		return math.NaN()
	case rs.family == famLog:
		return math.Log(rs.shift + r)
	default:
		return math.Pow(r, rs.exponent)
	}
}

// weightedScale returns sum_j n_j scale_j for the homogeneous fast paths.
func (rs *rateSolver) weightedScale(consumers []int) float64 {
	a := 0.0
	for k, cid := range rs.classes {
		a += float64(consumers[cid]) * rs.scales[k]
	}
	return a
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
