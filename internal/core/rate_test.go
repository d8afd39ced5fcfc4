package core

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// rateProblem builds a one-node problem whose single flow is consumed by
// the given classes (all attached at node 0), for exercising rateSolver.
func rateProblem(rmin, rmax float64, utilities ...utility.Function) (*model.Problem, *model.Index) {
	p := &model.Problem{
		Flows: []model.Flow{{ID: 0, Source: 0, RateMin: rmin, RateMax: rmax}},
		Nodes: []model.Node{{
			ID: 0, Capacity: 1e9,
			FlowCost: model.CostsOf(map[model.FlowID]float64{0: 1}),
		}},
	}
	for k, u := range utilities {
		p.Classes = append(p.Classes, model.Class{
			ID: model.ClassID(k), Flow: 0, Node: 0,
			MaxConsumers: 1000, CostPerConsumer: 1, Utility: u,
		})
	}
	return p, model.NewIndex(p)
}

func TestRateSolverZeroConsumers(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20))
	rs := newRateSolver(p, ix, 0)
	if got := rs.solve([]int{0}, 5); got != 10 {
		t.Errorf("rate with no consumers = %g, want rateMin", got)
	}
}

func TestRateSolverZeroPrice(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20))
	rs := newRateSolver(p, ix, 0)
	if got := rs.solve([]int{3}, 0); got != 1000 {
		t.Errorf("rate with zero price = %g, want rateMax", got)
	}
}

func TestRateSolverLogClosedForm(t *testing.T) {
	// Stationarity: n*scale/(1+r) = P => r = n*scale/P - 1.
	p, ix := rateProblem(10, 1000, utility.NewLog(20))
	rs := newRateSolver(p, ix, 0)
	if rs.family != famLog {
		t.Fatalf("family = %v, want famLog", rs.family)
	}
	got := rs.solve([]int{5}, 0.5)
	want := 5*20/0.5 - 1 // = 199
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("rate = %g, want %g", got, want)
	}
}

func TestRateSolverLogSaturation(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20))
	rs := newRateSolver(p, ix, 0)
	// Very high price pins the rate at rateMin.
	if got := rs.solve([]int{1}, 100); got != 10 {
		t.Errorf("rate under high price = %g, want 10", got)
	}
	// Very low price pins the rate at rateMax.
	if got := rs.solve([]int{1}, 1e-6); got != 1000 {
		t.Errorf("rate under low price = %g, want 1000", got)
	}
}

func TestRateSolverPowerClosedForm(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewPower(40, 0.5))
	rs := newRateSolver(p, ix, 0)
	if rs.family != famPower {
		t.Fatalf("family = %v, want famPower", rs.family)
	}
	// n*scale*k*r^(k-1) = P with n=2: 2*40*0.5*r^-0.5 = 4 => r = 100.
	got := rs.solve([]int{2}, 4)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("rate = %g, want 100", got)
	}
}

func TestRateSolverMixedFallsBackToBisection(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20), utility.NewPower(10, 0.5))
	rs := newRateSolver(p, ix, 0)
	if rs.family != famGeneral {
		t.Fatalf("family = %v, want famGeneral", rs.family)
	}
	consumers := []int{2, 3}
	price := 1.5
	got := rs.solve(consumers, price)
	// The solution satisfies the stationarity condition.
	if resid := rs.marginal(consumers, got) - price; math.Abs(resid) > 1e-6 {
		t.Errorf("stationarity residual = %g at r=%g", resid, got)
	}
}

func TestRateSolverMixedLogShiftsFallBack(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20), utility.Log{Scale: 5, Shift: 3})
	rs := newRateSolver(p, ix, 0)
	if rs.family != famGeneral {
		t.Fatalf("family = %v, want famGeneral (different shifts)", rs.family)
	}
}

func TestRateSolverMixedExponentsFallBack(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewPower(20, 0.25), utility.NewPower(5, 0.75))
	rs := newRateSolver(p, ix, 0)
	if rs.family != famGeneral {
		t.Fatalf("family = %v, want famGeneral (different exponents)", rs.family)
	}
}

func TestRateSolverClosedFormAgreesWithBisection(t *testing.T) {
	// The same log aggregate solved both ways must agree.
	pFast, ixFast := rateProblem(10, 1000, utility.NewLog(20), utility.NewLog(5))
	fast := newRateSolver(pFast, ixFast, 0)
	if fast.family != famLog {
		t.Fatal("fast path not selected")
	}
	slow := &rateSolver{
		flow:      pFast.Flows[0],
		classes:   fast.classes,
		utilities: fast.utilities,
		family:    famGeneral,
	}
	for _, price := range []float64{0.01, 0.1, 0.9, 3, 17} {
		consumers := []int{4, 9}
		a := fast.solve(consumers, price)
		b := slow.solve(consumers, price)
		if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
			t.Errorf("price %g: closed form %g vs bisection %g", price, a, b)
		}
	}
}

func TestRateSolverMultiClassAggregation(t *testing.T) {
	// Two log classes: (n0*s0 + n1*s1)/(1+r) = P.
	p, ix := rateProblem(1, 1e6, utility.NewLog(20), utility.NewLog(5))
	rs := newRateSolver(p, ix, 0)
	consumers := []int{10, 20}
	price := 0.02
	want := (10*20.0+20*5.0)/price - 1 // = 14999
	if got := rs.solve(consumers, price); math.Abs(got-want) > 1e-6 {
		t.Errorf("rate = %g, want %g", got, want)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("clamp(%g) = %g, want %g", tt.x, got, tt.want)
		}
	}
}
