package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// Incremental-engine equivalence: the dirty-set Step must be bit-identical
// to a full recompute — not approximately, exactly. A skipped flow's rate,
// a skipped node's populations and a skipped link's usage are the very
// floats the skipped recomputation would have produced, so exact equality
// of every observable (rates, populations, prices, gammas, utility) is the
// contract, at every iteration, for any worker count. `go test -race ./...`
// runs these tests and covers the sharded paths for data races.

// forceFull makes e's next Step the from-scratch iteration: every flow
// re-solves, every node re-admits, every link re-sums and the objective is
// rebuilt, as warmRestart forces for the first Step after a Reset. Called
// before every Step it turns e into the full-recompute oracle the
// incremental engine is compared against; production code has no such
// mode.
func forceFull(e *Engine) {
	for i := range e.flowForced {
		e.flowForced[i] = true
	}
	for b := range e.nodeForced {
		e.nodeForced[b] = true
	}
	for l := range e.linkForced {
		e.linkForced[l] = true
	}
	e.utilStale = true
}

// assertEnginesEqual compares the complete observable state of the
// incremental engine against the full-recompute reference exactly.
func assertEnginesEqual(t *testing.T, iter, workers int, full, inc *Engine) {
	t.Helper()
	fa, ia := full.Allocation(), inc.Allocation()
	for i := range fa.Rates {
		if fa.Rates[i] != ia.Rates[i] {
			t.Fatalf("iter %d workers %d: rate[%d] = %v, full %v",
				iter, workers, i, ia.Rates[i], fa.Rates[i])
		}
	}
	for j := range fa.Consumers {
		if fa.Consumers[j] != ia.Consumers[j] {
			t.Fatalf("iter %d workers %d: consumers[%d] = %d, full %d",
				iter, workers, j, ia.Consumers[j], fa.Consumers[j])
		}
	}
	fn, in := full.NodePrices(), inc.NodePrices()
	for b := range fn {
		if fn[b] != in[b] {
			t.Fatalf("iter %d workers %d: nodePrice[%d] = %v, full %v",
				iter, workers, b, in[b], fn[b])
		}
	}
	fl, il := full.LinkPrices(), inc.LinkPrices()
	for l := range fl {
		if fl[l] != il[l] {
			t.Fatalf("iter %d workers %d: linkPrice[%d] = %v, full %v",
				iter, workers, l, il[l], fl[l])
		}
	}
	fg, ig := full.Gammas(), inc.Gammas()
	for b := range fg {
		if fg[b] != ig[b] {
			t.Fatalf("iter %d workers %d: gamma[%d] = %v, full %v",
				iter, workers, b, ig[b], fg[b])
		}
	}
}

// TestIncrementalStepBitIdentical steps the forced-full oracle and an
// incremental engine in lockstep over randomized entangled workloads and
// componentized ones (with and without link bottlenecks, fixed and
// adaptive gamma, one shard and four), applies mid-run mutations, and
// requires every observable — rates, populations, node and link prices,
// gamma state, utility, overloads — to match exactly at every single
// iteration.
func TestIncrementalStepBitIdentical(t *testing.T) {
	const iters = 150
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 6; trial++ {
		p := parallelTestProblem(rng, trial%2 == 1)
		if trial >= 4 {
			// Componentized, so a budget of 4 really runs four shards; half
			// the copies get capacity headroom, so they quiesce and the
			// incremental engine has something to skip.
			p = fusedTestProblem(8, 2, trial%2 == 1)
			for b := len(p.Nodes) / 2; b < len(p.Nodes); b++ {
				p.Nodes[b].Capacity *= 250
			}
		}
		cfg := Config{Adaptive: trial%2 == 0}
		if !cfg.Adaptive {
			cfg.Gamma1 = 0.01 + rng.Float64()*0.2
			cfg.Gamma2 = cfg.Gamma1
		}
		for _, workers := range []int{1, 4} {
			cfg.workers = workers
			full, err := NewEngine(p.Clone(), cfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			inc, err := NewEngine(p.Clone(), cfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			wantShards := 1
			if trial >= 4 {
				wantShards = workers
			}
			if inc.plan.shards != wantShards {
				t.Fatalf("trial %d workers %d: plan has %d shards, want %d",
					trial, workers, inc.plan.shards, wantShards)
			}
			mutate := func(e *Engine, it int) {
				switch it {
				case 50:
					e.SetFlowActive(1, false)
				case 70:
					if err := e.SetClassDemand(2, 5); err != nil {
						t.Fatal(err)
					}
				case 90:
					e.SetFlowActive(1, true)
					if err := e.SetNodeCapacity(0, 1.5*workload.NodeCapacity); err != nil {
						t.Fatal(err)
					}
				case 110:
					if err := e.SetClassDemand(2, 40); err != nil {
						t.Fatal(err)
					}
				}
			}
			skipped := 0
			for it := 0; it < iters; it++ {
				mutate(full, it)
				mutate(inc, it)
				forceFull(full)
				rf, ri := full.Step(), inc.Step()
				if rf.Utility != ri.Utility ||
					rf.MaxNodeOverload != ri.MaxNodeOverload ||
					rf.MaxLinkOverload != ri.MaxLinkOverload ||
					rf.Iteration != ri.Iteration {
					t.Fatalf("trial %d workers %d iter %d: StepResult %+v, full %+v",
						trial, workers, it, ri, rf)
				}
				if rf.SkippedNodes != 0 || rf.SkippedLinks != 0 || rf.DirtyFlows != len(p.Flows) {
					t.Fatalf("trial %d iter %d: forced-full oracle skipped work: %+v", trial, it, rf)
				}
				skipped += ri.SkippedNodes + ri.SkippedLinks
				assertEnginesEqual(t, it, workers, full, inc)
			}
			if skipped == 0 {
				t.Errorf("trial %d workers %d: incremental engine never skipped a constraint in %d iterations",
					trial, workers, iters)
			}
			full.Close()
			inc.Close()
		}
	}
}

// TestIncrementalSteadyStateQuiesces checks the dirty set actually
// empties on a subsystem whose dynamics reach an exact float fixpoint.
// With capacity headroom every class is fully admitted, so every node's
// best unsatisfied benefit-cost ratio is 0, prices pin at their initial 0
// and — once rates hit r^max and populations hit n^max — nothing moves:
// no dirty flows, every node skipped. (A capacity-saturated node never
// freezes: the integer greedy admission and the Equation 12 price chase
// each other in a small persistent limit cycle, which the epoch tracking
// faithfully reports as dirty. The steady-state benchmark therefore mixes
// hot and overprovisioned subsystems; this test isolates the quiet kind.)
func TestIncrementalSteadyStateQuiesces(t *testing.T) {
	p := workload.Base()
	for b := range p.Nodes {
		p.Nodes[b].Capacity *= 250 // all demand fits at r^max
	}
	e, err := NewEngine(p, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last StepResult
	for i := 0; i < 50; i++ {
		last = e.Step()
	}
	// SkippedNodes counts armed nodes — the ones Step sweeps. Every node of
	// the base workload carries a flow and a class, so that is all of them.
	live := len(e.sh[0].nodes)
	if live != len(p.Nodes) {
		t.Fatalf("Step sweeps %d of %d nodes; the base workload loads every node", live, len(p.Nodes))
	}
	if last.DirtyFlows != 0 || last.SkippedNodes != live {
		t.Errorf("after 50 iterations: DirtyFlows=%d SkippedNodes=%d/%d; want fully quiet",
			last.DirtyFlows, last.SkippedNodes, live)
	}
	if last.Utility == 0 {
		t.Error("quiet engine reports zero utility")
	}
	// Quiet is not stuck: perturbing a class demand re-dirties its flow
	// and its node.
	if err := e.SetClassDemand(0, 1); err != nil {
		t.Fatal(err)
	}
	r := e.Step()
	if r.DirtyFlows == 0 || r.SkippedNodes == live {
		t.Errorf("mutation after quiescence left the engine quiet: %+v", r)
	}
}

// TestStepAfterClosePanics pins the deterministic post-Close contract for
// Step, Solve and Reset, on serial and sharded engines alike (without the
// closed flag a sharded engine dies on a send on a closed channel and a
// serial one silently succeeds).
func TestStepAfterClosePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic after Close", name)
			}
		}()
		fn()
	}
	ser, err := NewEngine(workload.Base(), Config{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ser.Step()
	ser.Close()
	mustPanic("serial Step", func() { ser.Step() })
	mustPanic("serial Solve", func() { ser.Solve(10) })
	mustPanic("serial Reset", func() { _ = ser.Reset(workload.Base()) })

	par, err := NewEngine(fusedTestProblem(8, 2, false), Config{workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	par.Step()
	par.Close()
	mustPanic("sharded Step", func() { par.Step() })
}

// TestEngineResetWarmStart re-solves a capacity-perturbed problem from the
// previous fixpoint and checks (a) the warm solution matches a cold
// engine's, (b) warm-starting needs fewer iterations, and (c) warm state
// actually carried over (non-zero prices at iteration zero).
func TestEngineResetWarmStart(t *testing.T) {
	base := workload.Base()
	e, err := NewEngine(base, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := e.Solve(400)
	if !first.Converged {
		t.Fatal("did not converge on the base problem")
	}

	perturbed := base.Clone()
	for b := range perturbed.Nodes {
		perturbed.Nodes[b].Capacity *= 0.9
	}
	if err := e.Reset(perturbed); err != nil {
		t.Fatal(err)
	}
	if e.Iteration() != 0 {
		t.Errorf("iteration after Reset = %d, want 0", e.Iteration())
	}
	warmPrices := e.NodePrices()
	nonZero := false
	for _, pr := range warmPrices {
		if pr != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Error("Reset discarded the warm node prices")
	}
	warm := e.Solve(400)
	if !warm.Converged {
		t.Fatal("warm re-solve did not converge")
	}

	cold, err := NewEngine(perturbed.Clone(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	coldRes := cold.Solve(400)
	if !coldRes.Converged {
		t.Fatal("cold engine did not converge")
	}
	if rel := math.Abs(warm.Utility-coldRes.Utility) / coldRes.Utility; rel > 0.005 {
		t.Errorf("warm utility %.0f vs cold %.0f (rel %.4f), want within 0.5%%",
			warm.Utility, coldRes.Utility, rel)
	}
	if warm.ConvergedAt >= coldRes.ConvergedAt {
		t.Errorf("warm start converged at %d, cold at %d; want warm faster",
			warm.ConvergedAt, coldRes.ConvergedAt)
	}
}

// TestEngineResetAfterFlowRemoval checks Reset composes with the mutators:
// a flow deactivated before Reset stays inactive, its rate pinned at zero
// (not clamped up to the new problem's RateMin).
func TestEngineResetAfterFlowRemoval(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Solve(250)
	e.SetFlowActive(5, false)
	e.Solve(250)

	perturbed := workload.Base().Clone()
	for b := range perturbed.Nodes {
		perturbed.Nodes[b].Capacity *= 0.9
	}
	if err := e.Reset(perturbed); err != nil {
		t.Fatal(err)
	}
	e.Solve(250)
	if e.FlowActive(5) {
		t.Error("Reset reactivated flow 5")
	}
	a := e.Allocation()
	if a.Rates[5] != 0 || a.Consumers[18] != 0 || a.Consumers[19] != 0 {
		t.Errorf("inactive flow 5 got rate %g, consumers %d/%d after Reset",
			a.Rates[5], a.Consumers[18], a.Consumers[19])
	}
}

// TestEngineResetRejectsIncompatible: topology changes must error without
// corrupting the running engine.
func TestEngineResetRejectsIncompatible(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Solve(100)

	bad := workload.Scaled(workload.Config{FlowCopies: 2})
	if err := e.Reset(bad); err == nil {
		t.Fatal("Reset accepted a problem with a different flow count")
	}
	moved := workload.Base().Clone()
	moved.Classes[0].Node = (moved.Classes[0].Node + 1) % model.NodeID(len(moved.Nodes))
	if err := e.Reset(moved); err == nil {
		t.Fatal("Reset accepted a problem with a moved class")
	}
	invalid := workload.Base().Clone()
	invalid.Flows[0].RateMin = 0
	if err := e.Reset(invalid); err == nil {
		t.Fatal("Reset accepted an invalid problem")
	}

	// The failed Resets must leave the engine running the old problem.
	if got := e.Step().Utility; math.Abs(got-before.Utility)/before.Utility > 0.01 {
		t.Errorf("utility after rejected Resets = %.0f, want ~%.0f", got, before.Utility)
	}
}

// TestEngineResetNoAllocsSteady: Reset reuses the index views, solvers and
// scratch; a Step immediately after Reset must still be 0 allocs/op.
func TestEngineResetStepNoAllocs(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Solve(100)
	perturbed := workload.Base().Clone()
	for b := range perturbed.Nodes {
		perturbed.Nodes[b].Capacity *= 1.1
	}
	if err := e.Reset(perturbed); err != nil {
		t.Fatal(err)
	}
	e.Step()
	if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
		t.Errorf("%v allocs per Step after Reset, want 0", allocs)
	}
}
