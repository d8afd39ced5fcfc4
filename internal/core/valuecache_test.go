package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// The flow-basis value cache is exact: scale_j * g_i and the per-bound
// marginal terms are the very expressions Utility.Value and Utility.Deriv
// evaluate, so an engine reading the cache and one calling the interface
// per class must agree on every float, every iteration.

// forceInterface makes e's next Step the interface-call oracle: no flow
// counts as cached, so admitNode and flowUtilItem call Utility.Value per
// class and the saturation tests call Utility.Deriv per class. Reset
// re-binds the solvers, so — like forceFull — it is called before every
// Step; production code has no such mode.
func forceInterface(e *Engine) {
	for i, rs := range e.solvers {
		rs.cached = false
		e.vc.basis[i] = math.NaN()
	}
}

// Flows 0–2 get fixed families so the Reset below has something to swap;
// the rest draw from every family the cache has to tell apart.
const (
	vcPowerHalf    = 0 // Power 0.5: family swapped to Log by the Reset
	vcPowerQuarter = 1 // Power 0.25: exponent swapped to 0.75 by the Reset
	vcLog          = 2
)

// mixFamilies rewrites every class utility of p, flow by flow: Log (two
// shifts), Power at the paper's three exponents, Hyperbolic, LinearCap, or
// a Log/Power mix within one flow (famGeneral by mixture).
func mixFamilies(rng *rand.Rand, p *model.Problem) {
	kind := make([]int, len(p.Flows))
	for i := range kind {
		switch i {
		case vcPowerHalf:
			kind[i] = 3
		case vcPowerQuarter:
			kind[i] = 2
		case vcLog:
			kind[i] = 0
		default:
			kind[i] = rng.Intn(8)
		}
	}
	for j := range p.Classes {
		c := &p.Classes[j]
		scale := 1 + rng.Float64()*40
		switch kind[c.Flow] {
		case 0:
			c.Utility = utility.NewLog(scale)
		case 1:
			c.Utility = utility.Log{Scale: scale, Shift: 2.5}
		case 2:
			c.Utility = utility.NewPower(scale, 0.25)
		case 3:
			c.Utility = utility.NewPower(scale, 0.5)
		case 4:
			c.Utility = utility.NewPower(scale, 0.75)
		case 5:
			c.Utility = utility.Hyperbolic{Scale: 10 * scale, HalfRate: 40}
		case 6:
			c.Utility = utility.LinearCap{Scale: scale / 4, Knee: 60}
		default:
			if j%2 == 0 {
				c.Utility = utility.NewLog(scale)
			} else {
				c.Utility = utility.NewPower(scale, 0.5)
			}
		}
	}
}

// swapAtUnchangedBounds is p with flow vcPowerHalf's classes turned into
// Log and flow vcPowerQuarter's exponent moved to 0.75, every rate bound
// as it was: a bound cache keyed by r^min/r^max alone would survive this
// Reset stale.
func swapAtUnchangedBounds(p *model.Problem) *model.Problem {
	q := p.Clone()
	for j := range q.Classes {
		c := &q.Classes[j]
		switch c.Flow {
		case vcPowerHalf:
			c.Utility = utility.NewLog(c.Utility.(utility.Power).Scale)
		case vcPowerQuarter:
			c.Utility = utility.NewPower(c.Utility.(utility.Power).Scale, 0.75)
		}
	}
	return q
}

func TestValueCacheBitIdentical(t *testing.T) {
	const iters = 140
	rng := rand.New(rand.NewSource(20261004))
	for trial := 0; trial < 6; trial++ {
		// Even trials are entangled (one shard whatever the budget), odd
		// ones componentized so a budget of 4 really runs four shards.
		var p *model.Problem
		if trial%2 == 0 {
			p = parallelTestProblem(rng, trial%4 == 0)
		} else {
			p = fusedTestProblem(8, 2, trial%4 == 1)
		}
		mixFamilies(rng, p)
		q := swapAtUnchangedBounds(p)
		cfg := Config{Adaptive: trial < 4}
		if !cfg.Adaptive {
			cfg.Gamma1 = 0.01 + rng.Float64()*0.1
			cfg.Gamma2 = cfg.Gamma1
		}
		for _, workers := range []int{1, 4} {
			cfg.workers = workers
			oracle, err := NewEngine(p.Clone(), cfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			cached, err := NewEngine(p.Clone(), cfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if want := 1 + (workers-1)*(trial%2); cached.plan.shards != want {
				t.Fatalf("trial %d workers %d: plan has %d shards, want %d",
					trial, workers, cached.plan.shards, want)
			}
			general := 0
			for _, rs := range cached.solvers {
				if !rs.cached {
					general++
				}
			}
			if general == 0 || general == len(cached.solvers) {
				t.Fatalf("trial %d: %d of %d flows uncached; the mix must have both kinds",
					trial, general, len(cached.solvers))
			}
			mutate := func(e *Engine, it int) {
				switch it {
				case 30:
					e.SetFlowActive(vcLog, false)
					e.SetFlowActive(vcPowerHalf, false)
				case 45:
					if err := e.SetClassDemand(3, 2); err != nil {
						t.Fatal(err)
					}
				case 60:
					e.SetFlowActive(vcLog, true)
					e.SetFlowActive(vcPowerHalf, true)
				case 75:
					if err := e.SetClassDemand(3, 60); err != nil {
						t.Fatal(err)
					}
				case 90:
					if err := e.Reset(q.Clone()); err != nil {
						t.Fatal(err)
					}
				}
			}
			for it := 0; it < iters; it++ {
				mutate(oracle, it)
				mutate(cached, it)
				forceInterface(oracle)
				ro, rc := oracle.Step(), cached.Step()
				if ro != rc {
					t.Fatalf("trial %d workers %d iter %d: StepResult %+v, oracle %+v",
						trial, workers, it, rc, ro)
				}
				assertEnginesEqual(t, it, workers, oracle, cached)
				for b := range oracle.nodeBest {
					if oracle.nodeBest[b] != cached.nodeBest[b] || oracle.nodeUsed[b] != cached.nodeUsed[b] {
						t.Fatalf("trial %d workers %d iter %d: node %d best/used %v/%v, oracle %v/%v",
							trial, workers, it, b, cached.nodeBest[b], cached.nodeUsed[b],
							oracle.nodeBest[b], oracle.nodeUsed[b])
					}
				}
				for i, rs := range cached.solvers {
					if oracle.flowUtil[i] != cached.flowUtil[i] {
						t.Fatalf("trial %d workers %d iter %d: flowUtil[%d] = %v, oracle %v",
							trial, workers, it, i, cached.flowUtil[i], oracle.flowUtil[i])
					}
					// The bound cache against the live utilities, term by
					// term: a stale boundPow shows here even on an
					// iteration where it would not flip a saturation test.
					for hi, r := range [2]float64{rs.flow.RateMin, rs.flow.RateMax} {
						if got, want := rs.marginalAtBound(cached.consumers, hi), rs.marginal(cached.consumers, r); got != want {
							t.Fatalf("trial %d workers %d iter %d: flow %d marginal at bound %d = %v, per-class Deriv %v",
								trial, workers, it, i, hi, got, want)
						}
					}
				}
				if u := cached.Utility(); u != rc.Utility {
					t.Fatalf("trial %d workers %d iter %d: Step utility %v, from scratch %v",
						trial, workers, it, rc.Utility, u)
				}
			}
			oracle.Close()
			cached.Close()
		}
	}
}

// TestValueCacheStepAllocatesNothing pins the cached Step at zero
// allocations on a mix with both cached and interface-call flows.
func TestValueCacheStepAllocatesNothing(t *testing.T) {
	p := fusedTestProblem(8, 2, true)
	mixFamilies(rand.New(rand.NewSource(7)), p)
	e, err := NewEngine(p, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 20; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
		t.Errorf("%v allocs per Step, want 0", allocs)
	}
}
