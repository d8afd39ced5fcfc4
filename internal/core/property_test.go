package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/utility"
	"repro/internal/workload"
)

// Property-based tests on LRGP's invariants, run over randomized
// workloads and randomized algorithm parameters.

// TestPropertyGreedyNeverOverAdmits: for any rates within bounds, the
// greedy allocation must respect node capacity whenever the flow costs
// alone fit, and must leave no room for one more consumer of the
// highest-BC unsatisfied class (local maximality of the greedy packing).
func TestPropertyGreedyNeverOverAdmits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	prop := func(seed int64, rateBits uint32) bool {
		p := workload.Random(rand.New(rand.NewSource(seed)), workload.RandomConfig{
			Flows: 2 + int(seed%3+3)%3, Nodes: 2 + int(rateBits%2),
		})
		ix := model.NewIndex(p)
		rates := make([]float64, len(p.Flows))
		r := rand.New(rand.NewSource(int64(rateBits)))
		for i, f := range p.Flows {
			rates[i] = f.RateMin + r.Float64()*(f.RateMax-f.RateMin)
		}
		consumers, _ := GreedyPopulations(p, ix, rates)
		a := model.Allocation{Rates: rates, Consumers: consumers}

		for b := range p.Nodes {
			bid := model.NodeID(b)
			flowUse := model.NodeFlowUsage(p, ix, a, bid)
			used := model.NodeUsage(p, ix, a, bid)
			if flowUse > p.Nodes[b].Capacity {
				continue // the boundary case: all populations must be 0
			}
			if used > p.Nodes[b].Capacity+1e-9 {
				return false
			}
			// Local maximality: the cheapest unsatisfied class at this
			// node must not fit in the leftover budget.
			leftover := p.Nodes[b].Capacity - used
			for _, cid := range ix.ClassesByNode(bid) {
				c := &p.Classes[cid]
				if consumers[cid] >= c.MaxConsumers {
					continue
				}
				if c.Utility.Value(rates[c.Flow]) <= 0 {
					continue // never admitted by design
				}
				if c.CostPerConsumer*rates[c.Flow] <= leftover {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRateWithinBounds: the rate allocator never leaves the
// flow's [RateMin, RateMax] interval, for any price and populations.
func TestPropertyRateWithinBounds(t *testing.T) {
	p, ix := rateProblem(10, 1000,
		utility.NewLog(20), utility.NewPower(10, 0.5), utility.Hyperbolic{Scale: 50, HalfRate: 40})
	rs := newRateSolver(p, ix, 0)
	prop := func(n0, n1, n2 uint16, priceBits uint32) bool {
		consumers := []int{int(n0 % 3000), int(n1 % 3000), int(n2 % 3000)}
		price := float64(priceBits) / 1e4 // 0 .. ~4.3e5
		r := rs.solve(consumers, price)
		return r >= 10 && r <= 1000 && !math.IsNaN(r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRateStationarity: whenever the solved rate is interior, the
// marginal utility matches the price to solver tolerance.
func TestPropertyRateStationarity(t *testing.T) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20), utility.NewPower(10, 0.5))
	rs := newRateSolver(p, ix, 0)
	prop := func(n0, n1 uint16, priceBits uint16) bool {
		consumers := []int{1 + int(n0%2000), 1 + int(n1%2000)}
		price := 0.1 + float64(priceBits)/10
		r := rs.solve(consumers, price)
		if r <= 10 || r >= 1000 {
			return true // boundary: stationarity need not hold
		}
		resid := rs.marginal(consumers, r) - price
		return math.Abs(resid) <= 1e-6*(1+price)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEngineInvariants: across random workloads and stepsizes,
// every iteration keeps prices non-negative, rates within bounds,
// populations within [0, max], and gamma within its clamp.
func TestPropertyEngineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		p := workload.Random(rng, workload.RandomConfig{
			Flows: 2 + rng.Intn(5), Nodes: 2 + rng.Intn(4), ClassesPerFlow: 1 + rng.Intn(4),
		})
		cfg := Config{Adaptive: rng.Intn(2) == 0}
		if !cfg.Adaptive {
			cfg.Gamma = 0.01 + rng.Float64()
		}
		e, err := NewEngine(p, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 60; i++ {
			e.Step()
			a := e.Allocation()
			for fi, f := range p.Flows {
				if a.Rates[fi] < f.RateMin-1e-12 || a.Rates[fi] > f.RateMax+1e-12 {
					t.Fatalf("trial %d iter %d: rate[%d]=%g outside [%g,%g]",
						trial, i, fi, a.Rates[fi], f.RateMin, f.RateMax)
				}
			}
			for j, c := range p.Classes {
				if a.Consumers[j] < 0 || a.Consumers[j] > c.MaxConsumers {
					t.Fatalf("trial %d iter %d: n[%d]=%d outside [0,%d]",
						trial, i, j, a.Consumers[j], c.MaxConsumers)
				}
			}
			for b, pr := range e.NodePrices() {
				if pr < 0 || math.IsNaN(pr) {
					t.Fatalf("trial %d iter %d: price[%d]=%g", trial, i, b, pr)
				}
			}
			if cfg.Adaptive {
				for b, g := range e.Gammas() {
					if g < DefaultGammaMin-1e-15 || g > DefaultGammaMax+1e-15 {
						t.Fatalf("trial %d iter %d: gamma[%d]=%g outside clamp", trial, i, b, g)
					}
				}
			}
		}
	}
}

// TestPropertyUtilityNondecreasingInCapacity: more node capacity never
// hurts the converged utility (monotonicity sanity check of the whole
// optimizer).
func TestPropertyUtilityNondecreasingInCapacity(t *testing.T) {
	base := workload.Base()
	prev := -1.0
	for _, scale := range []float64{0.25, 0.5, 1, 2, 4} {
		p := base.Clone()
		for b := range p.Nodes {
			p.Nodes[b].Capacity *= scale
		}
		e, err := NewEngine(p, Config{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		u := e.Solve(400).Utility
		// Allow a small tolerance: LRGP is a heuristic and tiny
		// non-monotonicities near discrete boundaries are possible.
		if u < prev*0.995 {
			t.Errorf("capacity x%g: utility %.0f fell below previous %.0f", scale, u, prev)
		}
		prev = u
	}
}
