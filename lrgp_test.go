package repro_test

import (
	"testing"
	"time"

	"repro"
)

// TestPublicAPIEndToEnd drives the whole library through the public
// facade only: build a problem, optimize, verify, enact, distribute.
func TestPublicAPIEndToEnd(t *testing.T) {
	problem := &repro.Problem{
		Name: "facade",
		Flows: []repro.Flow{
			{ID: 0, Source: 0, RateMin: 10, RateMax: 1000},
		},
		Nodes: []repro.Node{
			{ID: 0, Capacity: 450_000, FlowCost: repro.CostsOf(map[repro.FlowID]float64{0: 3})},
		},
		Classes: []repro.Class{
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 200,
				CostPerConsumer: 19, Utility: repro.NewLogUtility(40)},
			{ID: 1, Flow: 0, Node: 0, MaxConsumers: 3000,
				CostPerConsumer: 19, Utility: repro.NewLogUtility(4)},
		},
	}
	if err := repro.Validate(problem); err != nil {
		t.Fatal(err)
	}

	engine, err := repro.NewEngine(problem, repro.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	result := engine.Solve(250)
	if !result.Converged || result.Utility <= 0 {
		t.Fatalf("solve: converged=%v utility=%g", result.Converged, result.Utility)
	}
	ix := repro.NewIndex(problem)
	if err := repro.CheckFeasible(problem, ix, result.Allocation, 1e-9); err != nil {
		t.Fatal(err)
	}
	if got := repro.TotalUtility(problem, result.Allocation); got != result.Utility {
		t.Errorf("utility mismatch: %g vs %g", got, result.Utility)
	}

	// Enact in a broker.
	b, err := repro.NewBroker(problem)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	if _, err := b.AttachConsumer(0, nil, func(repro.Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyAllocation(result.Allocation); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(0, map[string]float64{"v": 1}, "x"); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d", delivered)
	}

	// Distribute over the in-memory transport and compare trajectories.
	net := repro.NewMemoryNetwork()
	defer net.Close()
	cluster, err := repro.NewCluster(repro.BaseWorkload(), repro.ClusterConfig{
		Core: repro.Config{Adaptive: true},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	stats, err := cluster.Run(10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 10 || stats[9].Utility <= 0 {
		t.Errorf("cluster stats: %+v", stats)
	}
}

// TestPublicAPIBaselines exercises the baselines through the facade.
func TestPublicAPIBaselines(t *testing.T) {
	tiny, err := repro.ParseWorkload("tiny", 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := repro.BruteForceSolve(tiny, 15)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Utility <= 0 {
		t.Errorf("brute force utility = %g", truth.Utility)
	}

	sa, err := repro.AnnealSolveRatesGreedy(repro.BaseWorkload(),
		repro.AnnealConfig{MaxSteps: 5000, Seed: 1, StartTemp: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sa.BestUtility <= 0 {
		t.Errorf("anneal utility = %g", sa.BestUtility)
	}
}

// TestPublicAPIMultirate exercises the multirate extension.
func TestPublicAPIMultirate(t *testing.T) {
	e, err := repro.NewMultirateEngine(repro.BaseWorkload(), repro.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(300)
	if res.Utility <= 0 {
		t.Errorf("multirate utility = %g", res.Utility)
	}
}
