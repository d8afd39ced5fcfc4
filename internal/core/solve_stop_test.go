package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The stop rule of Engine.Solve: one utility series per engine, an early
// exit only once the perturbation has drained, and no iteration at all when
// nothing moved. The churn cases use the demand_churn cycle's engine half
// (churnEngine, bench_test.go).

// allocHash folds an allocation's exact bits into one word.
func allocHash(a model.Allocation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range a.Rates {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	for _, n := range a.Consumers {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// overloads returns the engine's current worst node and link overload from
// its cached usage (exact by the DESIGN §9 invariants).
func overloads(e *Engine) (node, link float64) {
	for b, u := range e.nodeUsed {
		node = math.Max(node, u-e.nodeCap[b])
	}
	for l, u := range e.linkUsed {
		link = math.Max(link, u-e.linkCap[l])
	}
	return node, link
}

// TestSolveFirstSolveMatchesParent pins the first Solve of a fresh engine
// to what the per-call detector of the commit before the carried window
// (212cbec) returned: a cold solve is judged on its own iterations alone,
// so nothing about it may move.
func TestSolveFirstSolveMatchesParent(t *testing.T) {
	for _, c := range []struct {
		name        string
		p           *model.Problem
		iters       int
		utilityBits uint64
		alloc       uint64
	}{
		{"base", workload.Base(), 56, 0x413446079e2f7a3e, 0x83edacfbc1d5fbf},
		{"scaled-4x2", workload.Scaled(workload.Config{FlowCopies: 4, NodeSetCopies: 2}),
			56, 0x416446079e2f7a3e, 0x959c4b8548361d65},
		{"power50-2x1", workload.Scaled(workload.Config{Shape: workload.ShapePow50, FlowCopies: 2}),
			65, 0x414eadcfce14b9ae, 0x29fbc73e7dd9014d},
		{"metro-small", workload.MetroSmall(), 33, 0x41d00614333f05b5, 0xa37e832dafe6f5dd},
	} {
		e, err := NewEngine(c.p, Config{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		r := e.Solve(4000)
		e.Close()
		if r.Iterations != c.iters || r.ConvergedAt != c.iters || !r.Converged || r.Stop != telemetry.StopWindow {
			t.Errorf("%s: iterations %d, converged %v at %d, stop %v; want %d, true at %d, window",
				c.name, r.Iterations, r.Converged, r.ConvergedAt, r.Stop, c.iters, c.iters)
		}
		if got := math.Float64bits(r.Utility); got != c.utilityBits {
			t.Errorf("%s: utility bits %#x, want %#x", c.name, got, c.utilityBits)
		}
		if got := allocHash(r.Allocation); got != c.alloc {
			t.Errorf("%s: allocation hash %#x, want %#x", c.name, got, c.alloc)
		}
		if len(r.Trace) != r.Iterations {
			t.Errorf("%s: trace has %d entries for %d iterations", c.name, len(r.Trace), r.Iterations)
		}
	}
}

// TestSolveStopsOnceDrained: after a 200-op batch the warm re-solve stops
// well inside the window, and what it returns is as good as running the
// window out the old way on a twin engine with the identical history.
func TestSolveStopsOnceDrained(t *testing.T) {
	for _, cycles := range []int{1, 2, 7, 25} {
		serial := Config{Adaptive: true, workers: 1}
		early, full := newChurnEngine(t, serial), newChurnEngine(t, serial)
		for k := 1; k < cycles; k++ {
			early.batch(t, 200)
			full.batch(t, 200)
			early.Solve(100)
			full.Solve(100)
		}
		early.batch(t, 200)
		full.batch(t, 200)

		r := early.Solve(100)
		if r.Iterations >= metrics.DefaultWindow || r.Stop != telemetry.StopDrained || !r.Converged || r.ConvergedAt != r.Iterations {
			t.Errorf("cycle %d: %d iterations, stop %v, converged %v at %d; want a drained stop inside the window",
				cycles, r.Iterations, r.Stop, r.Converged, r.ConvergedAt)
		}
		// The twin runs the same re-solve under a fresh detector, as every
		// Solve used to.
		det := metrics.NewConvergenceDetector(0, 0)
		var last StepResult
		for it := 0; it < 100; it++ {
			if last = full.Step(); det.Observe(last.Utility) {
				break
			}
		}
		if !det.Converged() || det.ConvergedAt() < metrics.DefaultWindow {
			t.Fatalf("cycle %d: the full-window twin converged=%v at %d", cycles, det.Converged(), det.ConvergedAt())
		}
		if rel := math.Abs(r.Utility-last.Utility) / last.Utility; rel > metrics.DefaultRelAmplitude {
			t.Errorf("cycle %d: utility %v vs %v with the window run out (%.3g apart)",
				cycles, r.Utility, last.Utility, rel)
		}
		en, el := overloads(early.Engine)
		fn, fl := overloads(full.Engine)
		if en > fn || el > fl {
			t.Errorf("cycle %d: overload node %v link %v, with the window run out %v / %v", cycles, en, el, fn, fl)
		}
		if err := model.CheckFeasible(early.Problem(), early.Index(), r.Allocation, 1e-9); err != nil {
			t.Errorf("cycle %d: %v", cycles, err)
		}
		early.Close()
		full.Close()
	}
}

// TestSolveSettledIsNoOp: a Solve on a converged engine nothing has touched
// runs no iteration; anything that could move the allocation ends that.
func TestSolveSettledIsNoOp(t *testing.T) {
	p := workload.Base()
	e, err := NewEngine(p, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	settle := func(what string) Result {
		t.Helper()
		first := e.Solve(250)
		if !first.Converged || first.Iterations == 0 || first.Stop == telemetry.StopSettled {
			t.Fatalf("after %s: Solve ran %d iterations, converged %v, stop %v; want a real solve",
				what, first.Iterations, first.Converged, first.Stop)
		}
		at := e.Iteration()
		again := e.Solve(250)
		if again.Iterations != 0 || again.Stop != telemetry.StopSettled || !again.Converged ||
			again.ConvergedAt != 0 || len(again.Trace) != 0 {
			t.Fatalf("after %s: second Solve = %d iterations, stop %v, converged %v at %d, %d trace entries; want a settled no-op",
				what, again.Iterations, again.Stop, again.Converged, again.ConvergedAt, len(again.Trace))
		}
		if e.Iteration() != at {
			t.Fatalf("after %s: settled Solve advanced Iteration %d -> %d", what, at, e.Iteration())
		}
		if again.Utility != first.Utility || allocHash(again.Allocation) != allocHash(first.Allocation) {
			t.Fatalf("after %s: settled Solve returned utility %v, allocation %#x; standing %v, %#x",
				what, again.Utility, allocHash(again.Allocation), first.Utility, allocHash(first.Allocation))
		}
		return again
	}
	settle("construction")

	for _, c := range []struct {
		name  string
		touch func() error
	}{
		{"Step", func() error { e.Step(); return nil }},
		{"SetClassDemand", func() error { return e.SetClassDemand(0, p.Classes[0].MaxConsumers+7) }},
		{"SetNodeCapacity", func() error { return e.SetNodeCapacity(1, 0.9*p.Nodes[1].Capacity) }},
		{"SetFlowActive", func() error { e.SetFlowActive(5, false); return nil }},
		{"Reset", func() error { return e.Reset(p.Clone()) }},
		{"ResetRouting", func() error { return e.ResetRouting(e.Problem(), model.RoutingDelta{}) }},
	} {
		if err := c.touch(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		settle(c.name)
	}

	// A solve that ran out of budget is not settled.
	e.SetFlowActive(5, true)
	if r := e.Solve(2); r.Converged || r.Stop != telemetry.StopBudget || r.ConvergedAt != -1 {
		t.Fatalf("2-iteration solve after rejoin: %+v", r)
	}
	if r := e.Solve(250); r.Iterations == 0 {
		t.Error("Solve after a budget stop ran no iteration")
	}
}

// TestSolveTracedSettledWritesNothing: the traced solve takes the same
// no-op.
func TestSolveTracedSettledWritesNothing(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	first, err := e.SolveTraced(250, tw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != first.Iterations {
		t.Fatalf("first traced solve: %d records for %d iterations (%v)", len(recs), first.Iterations, err)
	}
	buf.Reset()
	again, err := e.SolveTraced(250, tw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("settled traced solve wrote %d bytes", buf.Len())
	}
	plain := e.Solve(250)
	if again.Stop != telemetry.StopSettled || again.Iterations != 0 ||
		again.Utility != plain.Utility || allocHash(again.Allocation) != allocHash(plain.Allocation) ||
		again.Utility != first.Utility || allocHash(again.Allocation) != allocHash(first.Allocation) {
		t.Errorf("settled traced solve = %+v, plain settled Solve %+v", again, plain)
	}
}

// TestSolveStopIdenticalAcrossWorkers: the work counters the rule reads are
// deterministic for any worker count, so every cycle stops at the same
// iteration with the same result.
func TestSolveStopIdenticalAcrossWorkers(t *testing.T) {
	type cycle struct {
		iters   int
		stop    telemetry.StopReason
		utility uint64
		alloc   uint64
	}
	run := func(workers int) []cycle {
		c := newChurnEngine(t, Config{Adaptive: true, workers: workers})
		defer c.Close()
		if workers > 1 && c.plan.shards != workers {
			t.Fatalf("workers %d: plan has %d shards", workers, c.plan.shards)
		}
		var out []cycle
		for k := 0; k < 12; k++ {
			if k%4 != 3 { // every fourth cycle is quiet
				c.batch(t, 200)
			}
			r := c.Solve(100)
			out = append(out, cycle{r.Iterations, r.Stop, math.Float64bits(r.Utility), allocHash(r.Allocation)})
		}
		return out
	}
	want := run(1)
	settled := 0
	for _, c := range want {
		if c.stop == telemetry.StopSettled {
			settled++
		}
	}
	if settled != 3 {
		t.Errorf("%d of the 3 quiet cycles were settled no-ops: %+v", settled, want)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("workers %d cycle %d: %+v, serial %+v", workers, k, got[k], want[k])
			}
		}
	}
}

// TestSolveLargePerturbationRunsItsWindow: halving a saturated node's
// capacity moves utility by far more than the band, so the carried window
// cannot end the solve early.
func TestSolveLargePerturbationRunsItsWindow(t *testing.T) {
	p := workload.Base()
	e, err := NewEngine(p, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := e.Solve(250)
	if err := e.SetNodeCapacity(0, p.Nodes[0].Capacity/2); err != nil {
		t.Fatal(err)
	}
	after := e.Solve(250)
	if rel := math.Abs(after.Utility-before.Utility) / before.Utility; rel <= metrics.DefaultRelAmplitude {
		t.Fatalf("halving node 0 moved utility by %.3g; the case needs more than the band", rel)
	}
	if after.Iterations < metrics.DefaultWindow || after.Stop != telemetry.StopWindow {
		t.Errorf("re-solve ran %d iterations, stop %v; want a full window of its own",
			after.Iterations, after.Stop)
	}
	tail := after.Trace[len(after.Trace)-metrics.DefaultWindow:]
	lo, hi, mean := tail[0], tail[0], 0.0
	for _, u := range tail {
		lo, hi, mean = math.Min(lo, u), math.Max(hi, u), mean+u/float64(len(tail))
	}
	if amp := (hi - lo) / math.Abs(mean); amp > metrics.DefaultRelAmplitude {
		t.Errorf("trailing window amplitude %.3g at the stop, want within the band", amp)
	}
}
