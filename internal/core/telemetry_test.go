package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
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
		e, err := NewEngine(c.p, Config{Adaptive: true, workers: c.workers, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		em := e.tel
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

		if got := em.steps.Value(); got != uint64(c.steps) {
			t.Errorf("%s: steps counter = %d, want %d", c.name, got, c.steps)
		}
		if got := em.utility.Value(); got != last.Utility {
			t.Errorf("%s: utility gauge = %g, want %g", c.name, got, last.Utility)
		}
		if got := em.maxNodeOverload.Value(); got != last.MaxNodeOverload {
			t.Errorf("%s: node overload gauge = %g, want %g", c.name, got, last.MaxNodeOverload)
		}
		if got, want := em.skippedConstraints.Value(), float64(last.SkippedNodes+last.SkippedLinks); got != want {
			t.Errorf("%s: skipped constraints gauge = %g, want %g (%d nodes + %d links)", c.name, got, want, last.SkippedNodes, last.SkippedLinks)
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
		if got := em.nodePriceUpdates.Value(); got != wantNode {
			t.Errorf("%s: node price updates = %d, want %d", c.name, got, wantNode)
		}
		wantLink := uint64(c.steps * liveLinks)
		if got := em.linkPriceUpdates.Value(); got != wantLink {
			t.Errorf("%s: link price updates = %d, want %d", c.name, got, wantLink)
		}
		for s := range em.stageSeconds {
			count, sum := em.stageSeconds[s].CountSum()
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
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	em := e.tel
	res := e.Solve(250)
	if !res.Converged {
		t.Fatal("base workload did not converge; cannot check telemetry")
	}
	if got := em.converged.Value(); got != 1 {
		t.Errorf("converged gauge = %g, want 1", got)
	}
	if got := em.convergedIteration.Value(); got != float64(res.ConvergedAt) {
		t.Errorf("converged iteration gauge = %g, want %d", got, res.ConvergedAt)
	}
	if got := em.steps.Value(); got != uint64(res.Iterations) {
		t.Errorf("steps counter = %d, want %d", got, res.Iterations)
	}
}

// TestSolveReportsStopReason: every Solve lands in exactly one
// lrgp_solve_stop_total{reason} counter, so an early exit can be told from
// a full window without reading iteration counts; a nil handle is a no-op
// (every untelemetered test in this package runs that path), and the
// observation is one atomic add per Solve, not per Step.
func TestSolveReportsStopReason(t *testing.T) {
	c := newChurnEngine(t, Config{Adaptive: true, workers: 1, Telemetry: telemetry.NewRegistry()})
	defer c.Close()
	em := c.tel

	// Building the churn engine ran its one cold solve.
	want := map[StopReason]uint64{StopWindow: 1}
	solve := func(maxIter int, reason StopReason) {
		t.Helper()
		r := c.Solve(maxIter)
		if r.Stop != reason {
			t.Fatalf("Solve(%d) stopped for %v, want %v", maxIter, r.Stop, reason)
		}
		want[reason]++
		for _, k := range []StopReason{StopBudget, StopWindow,
			StopDrained, StopSettled} {
			if got := em.solveStops[k].Value(); got != want[k] {
				t.Fatalf("after a %v stop: lrgp_solve_stop_total{reason=%q} = %d, want %d", reason, k, got, want[k])
			}
		}
	}
	solve(100, StopSettled)
	if got := em.convergedIteration.Value(); got != 0 {
		t.Errorf("converged iteration gauge after a settled solve = %g, want 0", got)
	}
	c.batch(t, 200)
	solve(1, StopBudget)
	solve(100, StopDrained)
	solve(100, StopSettled)

	var off *engineMetrics
	off.observeSolve(StopDrained, 1)
}

// TestStepTelemetryNoAllocs: the *enabled* telemetry path is lock-free
// over preallocated state, so even the instrumented Step stays at
// 0 allocs/op on both the serial and the sharded engine. (The disabled
// path is covered by TestStepSerialNoAllocs/TestStepParallelNoAllocs.)
func TestStepTelemetryNoAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()

	ser, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1,
		Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	ser.Step()
	if allocs := testing.AllocsPerRun(50, func() { ser.Step() }); allocs > 0 {
		t.Errorf("%v allocs per telemetered serial Step, want 0", allocs)
	}

	par, err := NewEngine(fusedTestProblem(8, 2, true), Config{Adaptive: true, workers: 4,
		Telemetry: reg})
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
		for s, b := range e.nodes.ids {
			if e.nodes.shard[s] != 0 {
				continue
			}
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

// pinnedEngineExposition is what an engine's registry renders, sample
// values cut off: the families, help text, types, label sets and bucket
// bounds the engine has exported since its metrics had their own schema
// in package telemetry.
const pinnedEngineExposition = `# HELP lrgp_engine_steps_total Completed LRGP iterations (Engine.Step calls).
# TYPE lrgp_engine_steps_total counter
lrgp_engine_steps_total
# HELP lrgp_engine_utility Objective value (Equation 1) after the most recent iteration.
# TYPE lrgp_engine_utility gauge
lrgp_engine_utility
# HELP lrgp_engine_max_node_overload Largest node usage minus capacity after the most recent iteration.
# TYPE lrgp_engine_max_node_overload gauge
lrgp_engine_max_node_overload
# HELP lrgp_engine_max_link_overload Largest link usage minus capacity after the most recent iteration.
# TYPE lrgp_engine_max_link_overload gauge
lrgp_engine_max_link_overload
# HELP lrgp_engine_price_updates_total Price recomputations by resource.
# TYPE lrgp_engine_price_updates_total counter
lrgp_engine_price_updates_total{resource="node"}
lrgp_engine_price_updates_total{resource="link"}
# HELP lrgp_engine_dirty_flows Flows re-solved by the most recent incremental iteration.
# TYPE lrgp_engine_dirty_flows gauge
lrgp_engine_dirty_flows
# HELP lrgp_engine_skipped_constraints Armed node+link constraints that reused cached state in the most recent iteration.
# TYPE lrgp_engine_skipped_constraints gauge
lrgp_engine_skipped_constraints
# HELP lrgp_engine_converged 1 once the 0.1% amplitude convergence rule has been met, else 0.
# TYPE lrgp_engine_converged gauge
lrgp_engine_converged
# HELP lrgp_engine_converged_iteration Iteration at which convergence was first detected, or -1.
# TYPE lrgp_engine_converged_iteration gauge
lrgp_engine_converged_iteration
# HELP lrgp_engine_stage_seconds Wall time of each Step stage.
# TYPE lrgp_engine_stage_seconds histogram
lrgp_engine_stage_seconds_bucket{stage="rate",le="1e-06"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="5e-06"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="1e-05"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="5e-05"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.0001"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.0005"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.001"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.005"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.01"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.05"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.1"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="0.5"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="1"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="5"}
lrgp_engine_stage_seconds_bucket{stage="rate",le="+Inf"}
lrgp_engine_stage_seconds_sum{stage="rate"}
lrgp_engine_stage_seconds_count{stage="rate"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="1e-06"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="5e-06"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="1e-05"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="5e-05"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.0001"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.0005"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.001"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.005"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.01"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.05"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.1"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="0.5"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="1"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="5"}
lrgp_engine_stage_seconds_bucket{stage="admission",le="+Inf"}
lrgp_engine_stage_seconds_sum{stage="admission"}
lrgp_engine_stage_seconds_count{stage="admission"}
lrgp_engine_stage_seconds_bucket{stage="price",le="1e-06"}
lrgp_engine_stage_seconds_bucket{stage="price",le="5e-06"}
lrgp_engine_stage_seconds_bucket{stage="price",le="1e-05"}
lrgp_engine_stage_seconds_bucket{stage="price",le="5e-05"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.0001"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.0005"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.001"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.005"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.01"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.05"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.1"}
lrgp_engine_stage_seconds_bucket{stage="price",le="0.5"}
lrgp_engine_stage_seconds_bucket{stage="price",le="1"}
lrgp_engine_stage_seconds_bucket{stage="price",le="5"}
lrgp_engine_stage_seconds_bucket{stage="price",le="+Inf"}
lrgp_engine_stage_seconds_sum{stage="price"}
lrgp_engine_stage_seconds_count{stage="price"}
# HELP lrgp_solve_stop_total Engine.Solve calls by stop reason.
# TYPE lrgp_solve_stop_total counter
lrgp_solve_stop_total{reason="budget"}
lrgp_solve_stop_total{reason="window"}
lrgp_solve_stop_total{reason="drained"}
lrgp_solve_stop_total{reason="settled"}
`

// families splits a Prometheus exposition by family, with each sample's
// value cut off.
func families(expo string) map[string]string {
	out := make(map[string]string)
	var name string
	for _, line := range strings.SplitAfter(expo, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
		} else if cut := strings.LastIndexByte(line, ' '); cut >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:cut] + "\n"
		}
		out[name] += line
	}
	return out
}

// TestEngineTelemetryExposition pins what an engine exports. Its
// families equal pinnedEngineExposition, and after an adaptive Solve of
// the base workload every sample equals what the Solve's StepResults and
// Result say: one step and one histogram observation per iteration, the
// last iteration's gauges, one price update per armed constraint per
// iteration, and one window stop.
func TestEngineTelemetryExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, want := families(sb.String()), families(pinnedEngineExposition)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("family %s:\n%s\nwant:\n%s", name, got[name], w)
		}
	}
	for name := range got {
		if want[name] == "" {
			t.Errorf("unexpected family %s", name)
		}
	}

	var steps []StepResult
	var armedNodes, armedLinks int
	res, err := e.solve(250, func(_ int, r StepResult, _ bool) error {
		steps = append(steps, r)
		nodes, links := Armed(e)
		armedNodes += len(nodes)
		armedLinks += len(links)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopWindow || len(steps) != res.Iterations {
		t.Fatalf("Solve stopped for %v after %d iterations (%d observed), want a window stop", res.Stop, res.Iterations, len(steps))
	}
	last := steps[len(steps)-1]
	var nanos [3]int64
	for _, r := range steps {
		for s, n := range r.StageNanos {
			nanos[s] += n
		}
	}
	samples := map[string]any{
		"lrgp_engine_steps_total":                          uint64(res.Iterations),
		"lrgp_engine_utility":                              res.Utility,
		"lrgp_engine_max_node_overload":                    last.MaxNodeOverload,
		"lrgp_engine_max_link_overload":                    last.MaxLinkOverload,
		`lrgp_engine_price_updates_total{resource="node"}`: uint64(armedNodes),
		`lrgp_engine_price_updates_total{resource="link"}`: uint64(armedLinks),
		"lrgp_engine_dirty_flows":                          float64(last.DirtyFlows),
		"lrgp_engine_skipped_constraints":                  float64(last.SkippedNodes + last.SkippedLinks),
		"lrgp_engine_converged":                            1.0,
		"lrgp_engine_converged_iteration":                  float64(res.ConvergedAt),
		`lrgp_solve_stop_total{reason="budget"}`:           uint64(0),
		`lrgp_solve_stop_total{reason="window"}`:           uint64(1),
		`lrgp_solve_stop_total{reason="drained"}`:          uint64(0),
		`lrgp_solve_stop_total{reason="settled"}`:          uint64(0),
	}
	snap := reg.Snapshot()
	if len(snap) != len(samples)+len(nanos) {
		t.Errorf("the registry holds %d series, want %d", len(snap), len(samples)+len(nanos))
	}
	for key, w := range samples {
		if snap[key] != w {
			t.Errorf("%s = %v, want %v", key, snap[key], w)
		}
	}
	for s, name := range [3]string{"rate", "admission", "price"} {
		h, _ := snap[`lrgp_engine_stage_seconds{stage="`+name+`"}`].(map[string]any)
		sum, _ := h["sum"].(float64)
		if h["count"] != uint64(res.Iterations) || math.Abs(sum-float64(nanos[s])/1e9) > 1e-9 {
			t.Errorf("stage %s histogram = %v, want %d observations summing to %gs", name, h, res.Iterations, float64(nanos[s])/1e9)
		}
	}
}
