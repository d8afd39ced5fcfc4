package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestStepTelemetryObservations: with Config.Telemetry set, Step must
// populate StageNanos — split by stage under every plan, one shard or many
// — and mirror its results into the registry; the counters must not depend
// on the worker count.
func TestStepTelemetryObservations(t *testing.T) {
	entangled := parallelTestProblem(rand.New(rand.NewSource(5)), true)
	for _, c := range []struct {
		name    string
		p       *model.Problem
		workers int
		shards  int
		steps   int
		armed   [2]int // nodes, links
	}{
		{"entangled/workers=1", entangled, 1, 1, 7, [2]int{20, 26}},
		{"entangled/workers=4", entangled, 4, 1, 7, [2]int{20, 26}},
		{"metro-small/workers=4", workload.MetroSmall(), 4, 4, 50, [2]int{1139, 60}},
	} {
		reg := telemetry.NewRegistry()
		em := telemetry.NewEngineMetrics(reg)
		e, err := NewEngine(c.p, Config{Adaptive: true, workers: c.workers, Telemetry: em})
		if err != nil {
			t.Fatal(err)
		}
		if e.plan.shards != c.shards {
			t.Fatalf("%s: plan has %d shards, want %d", c.name, e.plan.shards, c.shards)
		}
		var last StepResult
		var nanos [3]int64
		for i := 0; i < c.steps; i++ {
			last = e.Step()
			for s, n := range last.StageNanos {
				nanos[s] += n
			}
		}
		e.Close()

		if got := em.Steps.Value(); got != uint64(c.steps) {
			t.Errorf("%s: steps counter = %d, want %d", c.name, got, c.steps)
		}
		if got := em.Utility.Value(); got != last.Utility {
			t.Errorf("%s: utility gauge = %g, want %g", c.name, got, last.Utility)
		}
		if got := em.MaxNodeOverload.Value(); got != last.MaxNodeOverload {
			t.Errorf("%s: node overload gauge = %g, want %g", c.name, got, last.MaxNodeOverload)
		}
		// The price sweeps cover the armed constraints. With no routing
		// change, every price starting at 0 and every γ at the ceiling, that
		// is — re-stated here from the problem, not asked of the engine — a
		// node some flow crosses that carries a class or that its flows at
		// RateMax could fill, and a link they could fill. Metro-small arms
		// 1,139 of its 1,200 nodes (30 carry no flow, 31 are slack) and 60
		// of its 240 links.
		canFill := func(crossing []model.FlowID, costs []float64, capacity float64) bool {
			bound := 0.0
			for k, i := range crossing {
				bound += costs[k] * c.p.Flows[i].RateMax
			}
			return len(crossing) > 0 && !(bound <= capacity)
		}
		liveNodes, liveLinks := 0, 0
		for b := range c.p.Nodes {
			bid := model.NodeID(b)
			crossing := e.ix.FlowsByNode(bid)
			if len(crossing) > 0 && len(e.ix.ClassesByNode(bid)) > 0 || canFill(crossing, e.ix.FlowCostsByNode(bid), c.p.Nodes[b].Capacity) {
				liveNodes++
			}
		}
		for l := range c.p.Links {
			lid := model.LinkID(l)
			if canFill(e.ix.FlowsByLink(lid), e.ix.FlowCostsByLink(lid), c.p.Links[l].Capacity) {
				liveLinks++
			}
		}
		if c.armed != [2]int{liveNodes, liveLinks} {
			t.Errorf("%s: the rule arms %d nodes and %d links, want %v", c.name, liveNodes, liveLinks, c.armed)
		}
		wantNode := uint64(c.steps * liveNodes)
		if got := em.NodePriceUpdates.Value(); got != wantNode {
			t.Errorf("%s: node price updates = %d, want %d", c.name, got, wantNode)
		}
		wantLink := uint64(c.steps * liveLinks)
		if got := em.LinkPriceUpdates.Value(); got != wantLink {
			t.Errorf("%s: link price updates = %d, want %d", c.name, got, wantLink)
		}
		for s := range em.StageSeconds {
			count, sum := em.StageSeconds[s].CountSum()
			if count != uint64(c.steps) {
				t.Errorf("%s: stage %d histogram count = %d, want %d", c.name, s, count, c.steps)
			}
			if sum < 0 {
				t.Errorf("%s: stage %d wall time sum = %g", c.name, s, sum)
			}
		}
		// Every stage must get its own share of the clock (a single stage
		// of a single Step can legitimately read 0ns on a coarse clock;
		// admission and price together over the whole run cannot). A Step
		// that lumped its wall time into the rate slot would fail here.
		if nanos[0] <= 0 || nanos[1]+nanos[2] <= 0 {
			t.Errorf("%s: accumulated StageNanos = %v, want rate > 0 and admission+price > 0", c.name, nanos)
		}
	}
}

// TestStepWithoutTelemetryLeavesStageNanosZero: the untelemetered Step
// must not read the clock, so StageNanos stays zero.
func TestStepWithoutTelemetryLeavesStageNanosZero(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if r := e.Step(); r.StageNanos != [3]int64{} {
		t.Errorf("StageNanos = %v without telemetry, want zeros", r.StageNanos)
	}
}

// TestSolveReportsConvergence: Solve must publish the convergence
// detector's verdict to the registry.
func TestSolveReportsConvergence(t *testing.T) {
	reg := telemetry.NewRegistry()
	em := telemetry.NewEngineMetrics(reg)
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1, Telemetry: em})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := e.Solve(250)
	if !res.Converged {
		t.Fatal("base workload did not converge; cannot check telemetry")
	}
	if got := em.Converged.Value(); got != 1 {
		t.Errorf("converged gauge = %g, want 1", got)
	}
	if got := em.ConvergedIteration.Value(); got != float64(res.ConvergedAt) {
		t.Errorf("converged iteration gauge = %g, want %d", got, res.ConvergedAt)
	}
	if got := em.Steps.Value(); got != uint64(res.Iterations) {
		t.Errorf("steps counter = %d, want %d", got, res.Iterations)
	}
}

// TestSolveReportsStopReason: every Solve lands in exactly one
// lrgp_solve_stop_total{reason} counter, so an early exit can be told from
// a full window without reading iteration counts; a nil handle is a no-op
// (every untelemetered test in this package runs that path), and the
// observation is one atomic add per Solve, not per Step.
func TestSolveReportsStopReason(t *testing.T) {
	em := telemetry.NewEngineMetrics(telemetry.NewRegistry())
	c := newChurnEngine(t, Config{Adaptive: true, workers: 1, Telemetry: em})
	defer c.Close()

	// Building the churn engine ran its one cold solve.
	want := map[telemetry.StopReason]uint64{telemetry.StopWindow: 1}
	solve := func(maxIter int, reason telemetry.StopReason) {
		t.Helper()
		r := c.Solve(maxIter)
		if r.Stop != reason {
			t.Fatalf("Solve(%d) stopped for %v, want %v", maxIter, r.Stop, reason)
		}
		want[reason]++
		for _, k := range []telemetry.StopReason{telemetry.StopBudget, telemetry.StopWindow,
			telemetry.StopDrained, telemetry.StopSettled} {
			if got := em.SolveStops[k].Value(); got != want[k] {
				t.Fatalf("after a %v stop: lrgp_solve_stop_total{reason=%q} = %d, want %d", reason, k, got, want[k])
			}
		}
	}
	solve(100, telemetry.StopSettled)
	if got := em.ConvergedIteration.Value(); got != 0 {
		t.Errorf("converged iteration gauge after a settled solve = %g, want 0", got)
	}
	c.batch(t, 200)
	solve(1, telemetry.StopBudget)
	solve(100, telemetry.StopDrained)
	solve(100, telemetry.StopSettled)

	var off *telemetry.EngineMetrics
	off.ObserveSolveStop(telemetry.StopDrained)
}

// TestStepTelemetryNoAllocs: the *enabled* telemetry path is lock-free
// over preallocated state, so even the instrumented Step stays at
// 0 allocs/op on both the serial and the sharded engine. (The disabled
// path is covered by TestStepSerialNoAllocs/TestStepParallelNoAllocs.)
func TestStepTelemetryNoAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()

	ser, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1,
		Telemetry: telemetry.NewEngineMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	ser.Step()
	if allocs := testing.AllocsPerRun(50, func() { ser.Step() }); allocs > 0 {
		t.Errorf("%v allocs per telemetered serial Step, want 0", allocs)
	}

	par, err := NewEngine(fusedTestProblem(8, 2, true), Config{Adaptive: true, workers: 4,
		Telemetry: telemetry.NewEngineMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if par.pool == nil {
		t.Fatal("expected sharded engine")
	}
	par.Step()
	if allocs := testing.AllocsPerRun(50, func() { par.Step() }); allocs > 0 {
		t.Errorf("%v allocs per telemetered parallel Step, want 0", allocs)
	}
}

// TestShardImbalance: the work ÷ span number of a Step is 1 on a one-shard
// plan, is max ÷ mean of the per-shard recompute counts Snapshot reports on
// a sharded one, repeats exactly from run to run, and counts what the
// shards recomputed — on a Step that recomputed nothing it is 1 again.
func TestShardImbalance(t *testing.T) {
	one, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if s := one.Snapshot(); s.ShardImbalance != 1 || len(s.ShardWork) != 1 {
		t.Fatalf("before any Step: imbalance %v, work %v; want 1 and one shard", s.ShardImbalance, s.ShardWork)
	}
	if r := one.Step(); r.ShardImbalance != 1 {
		t.Fatalf("one-shard Step reports imbalance %v", r.ShardImbalance)
	}

	run := func() []float64 {
		e, err := NewEngine(fusedTestProblem(8, 2, true), Config{Adaptive: true, workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// Shard 0's nodes get headroom and its components go quiet, so the
		// shards end up with different amounts to recompute.
		for _, b := range e.plan.nodes[0] {
			if err := e.SetNodeCapacity(model.NodeID(b), 250*e.p.Nodes[b].Capacity); err != nil {
				t.Fatal(err)
			}
		}
		var series []float64
		for i := 0; i < 60; i++ {
			r := e.Step()
			s := e.Snapshot()
			if len(s.ShardWork) != 4 {
				t.Fatalf("Step %d: %d shards of work, want 4", i, len(s.ShardWork))
			}
			maxWork, sum := 0, 0
			for _, w := range s.ShardWork {
				maxWork = max(maxWork, w)
				sum += w
			}
			nodes, links := Armed(e)
			if want := r.DirtyFlows + len(nodes) - r.SkippedNodes + len(links) - r.SkippedLinks; sum != want {
				t.Fatalf("Step %d: shards recomputed %d items, the counters say %d", i, sum, want)
			}
			if want := float64(maxWork*4) / float64(sum); r.ShardImbalance != want || s.ShardImbalance != want {
				t.Fatalf("Step %d: imbalance %v (snapshot %v), max ÷ mean of %v is %v",
					i, r.ShardImbalance, s.ShardImbalance, s.ShardWork, want)
			}
			series = append(series, r.ShardImbalance)
		}
		return series
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Fatalf("imbalance differs between two runs:\n%v\n%v", a, b)
	}
	if a[len(a)-1] <= 1 {
		t.Errorf("imbalance stayed at %v although one shard's components went quiet", a[len(a)-1])
	}

	quiet := workload.Base()
	for b := range quiet.Nodes {
		quiet.Nodes[b].Capacity *= 250
	}
	q, err := NewEngine(quiet, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var last StepResult
	for i := 0; i < 50; i++ {
		last = q.Step()
	}
	if last.DirtyFlows != 0 || last.ShardImbalance != 1 {
		t.Errorf("quiet Step: %+v, want no work and imbalance 1", last)
	}
}
