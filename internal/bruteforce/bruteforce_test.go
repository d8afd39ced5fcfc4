package bruteforce

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
	"repro/internal/workload"
)

func TestSolveTinyFeasibleAndStable(t *testing.T) {
	p := workload.Tiny()
	res, err := Solve(p, 15)
	if err != nil {
		t.Fatal(err)
	}
	ix := model.NewIndex(p)
	if err := model.CheckFeasible(p, ix, res.Best, 1e-9); err != nil {
		t.Errorf("optimum infeasible: %v", err)
	}
	if got := model.TotalUtility(p, res.Best); math.Abs(got-res.Utility) > 1e-9 {
		t.Errorf("utility mismatch: %g vs %g", res.Utility, got)
	}
	// A finer grid can only improve (grid is nested only for some sizes,
	// so allow equality plus tiny refinement gains).
	fine, err := Solve(p, 29)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Utility < res.Utility-1e-9 {
		t.Errorf("finer grid got worse: %g < %g", fine.Utility, res.Utility)
	}
}

func TestSolveSingleKnapsackExact(t *testing.T) {
	// One flow, one node, one rate (min == max): pure integer packing
	// with a hand-computable answer.
	p := &model.Problem{
		Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 10, RateMax: 10}},
		Nodes: []model.Node{{ID: 0, Capacity: 130, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 1})}},
		Classes: []model.Class{
			// Unit cost 2*10 = 20; U = 100*log(11) ~ 239.8 each.
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 3, CostPerConsumer: 2, Utility: utility.NewLog(100)},
			// Unit cost 4*10 = 40; U = 10*log(11) ~ 24 each.
			{ID: 1, Flow: 0, Node: 0, MaxConsumers: 3, CostPerConsumer: 4, Utility: utility.NewLog(10)},
		},
	}
	res, err := Solve(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Budget = 130 - 10 = 120. Take all 3 of class 0 (60), then 1 of
	// class 1 (40): utility = 3*239.8 + 24 = 743.5. Check populations.
	if res.Best.Consumers[0] != 3 || res.Best.Consumers[1] != 1 {
		t.Errorf("consumers = %v, want [3 1]", res.Best.Consumers)
	}
	want := 3*p.Classes[0].Utility.Value(10) + 1*p.Classes[1].Utility.Value(10)
	if math.Abs(res.Utility-want) > 1e-9 {
		t.Errorf("utility = %g, want %g", res.Utility, want)
	}
}

func TestSolveRejectsLargeInstances(t *testing.T) {
	if _, err := Solve(workload.Base(), 10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func TestSolveValidates(t *testing.T) {
	p := workload.Tiny()
	p.Classes[0].CostPerConsumer = 0
	if _, err := Solve(p, 5); err == nil {
		t.Error("accepted invalid problem")
	}
}

func TestRateGrid(t *testing.T) {
	g := rateGrid(10, 20, 3)
	want := []float64{10, 15, 20}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("grid = %v, want %v", g, want)
		}
	}
	if g := rateGrid(5, 5, 7); len(g) != 1 || g[0] != 5 {
		t.Errorf("degenerate grid = %v", g)
	}
	if g := rateGrid(1, 9, 1); len(g) != 1 || g[0] != 1 {
		t.Errorf("single-step grid = %v", g)
	}
}

// TestLRGPNearOptimal cross-checks LRGP against the exhaustive optimum on
// the tiny instance: the heuristic must land within 10% of ground truth.
func TestLRGPNearOptimal(t *testing.T) {
	p := workload.Tiny()
	truth, err := Solve(p, 41)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Solve(500)
	if got.Utility < 0.9*truth.Utility {
		t.Errorf("LRGP = %g, brute force = %g (below 90%%)", got.Utility, truth.Utility)
	}
	// LRGP works on continuous rates and may edge past the rate-grid
	// optimum, but never beyond the grid's discretization error.
	if got.Utility > truth.Utility*1.02 {
		t.Errorf("LRGP = %g exceeds exhaustive optimum %g by >2%%: ground truth broken", got.Utility, truth.Utility)
	}
}

// TestLRGPNearOptimalRandomTiny sweeps randomized small instances: LRGP
// must stay within 15% of the exhaustive optimum and never exceed it by
// more than the rate grid's discretization error.
//
// Populations are kept in the tens: with single-digit n^max the greedy
// admission's integer granularity costs LRGP up to ~25% against the
// optimum (a real limitation — the paper's workloads use populations in
// the hundreds to thousands, where the granularity loss vanishes; see
// EXPERIMENTS.md).
func TestLRGPNearOptimalRandomTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		p := &model.Problem{
			Name: "tiny-random",
			Flows: []model.Flow{
				{ID: 0, Source: 0, RateMin: 1, RateMax: 50 + rng.Float64()*100},
				{ID: 1, Source: 1, RateMin: 1, RateMax: 50 + rng.Float64()*100},
			},
			Nodes: []model.Node{
				{ID: 0, Capacity: 2000 + rng.Float64()*4000,
					FlowCost: model.CostsOf(map[model.FlowID]float64{0: 1 + rng.Float64()*4, 1: 1 + rng.Float64()*4})},
				{ID: 1, Capacity: 2000 + rng.Float64()*4000,
					FlowCost: model.CostsOf(map[model.FlowID]float64{0: 1 + rng.Float64()*4, 1: 1 + rng.Float64()*4})},
			},
		}
		for j := 0; j < 4; j++ {
			p.Classes = append(p.Classes, model.Class{
				ID: model.ClassID(j), Flow: model.FlowID(j % 2), Node: model.NodeID(j / 2),
				MaxConsumers:    10 + rng.Intn(30),
				CostPerConsumer: 5 + rng.Float64()*30,
				Utility:         utility.NewLog(1 + rng.Float64()*60),
			})
		}
		if err := model.Validate(p); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		truth, err := Solve(p, 81)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := e.Solve(600)
		if got.Utility < 0.85*truth.Utility {
			t.Errorf("trial %d: LRGP %.1f below 85%% of optimum %.1f", trial, got.Utility, truth.Utility)
		}
		if got.Utility > truth.Utility*1.03 {
			t.Errorf("trial %d: LRGP %.1f above grid optimum %.1f by >3%%", trial, got.Utility, truth.Utility)
		}
	}
}

// TestAnnealNearOptimal cross-checks simulated annealing against the
// exhaustive optimum on the tiny instance.
func TestAnnealNearOptimal(t *testing.T) {
	p := workload.Tiny()
	truth, err := Solve(p, 41)
	if err != nil {
		t.Fatal(err)
	}
	sa, _, err := anneal.SolveBestOf(p, anneal.Config{MaxSteps: 200_000, Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sa.BestUtility < 0.95*truth.Utility {
		t.Errorf("SA = %g, brute force = %g (below 95%%)", sa.BestUtility, truth.Utility)
	}
	// SA works on continuous rates, so it may edge past the grid optimum,
	// but never by more than the grid's discretization error.
	if sa.BestUtility > truth.Utility*1.02 {
		t.Errorf("SA = %g exceeds exhaustive optimum %g by >2%% (grid too coarse or SA bug)",
			sa.BestUtility, truth.Utility)
	}
}
