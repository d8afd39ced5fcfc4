package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// Worker-count equivalence: for any worker count, Step must produce
// bit-identical rates, populations, prices, gammas and StepResults to the
// workers: 1 engine; exact float equality — not tolerance — is the
// contract. The Random workloads here are entangled (classes attach
// anywhere, so the topology is one connected component): they prove that
// asking for 2, 4 or 8 workers on a topology that cannot shard changes
// nothing. engine_fused_test.go is the same contract on topologies that do
// shard.

// parallelTestProblem builds a random entangled workload big enough to
// clear the minParallelItems cutover.
func parallelTestProblem(rng *rand.Rand, withLinks bool) *model.Problem {
	p := workload.Random(rng, workload.RandomConfig{
		Flows:          minParallelItems + rng.Intn(16),
		Nodes:          minParallelItems + rng.Intn(8),
		ClassesPerFlow: 2 + rng.Intn(3),
	})
	if withLinks {
		p = workload.WithLinkBottlenecks(p, 0.3+rng.Float64()*0.4)
	}
	return p
}

// assertStateEqual compares the complete observable engine state exactly.
func assertStateEqual(t *testing.T, iter, workers int, serial, parallel *Engine) {
	t.Helper()
	sa, pa := serial.Allocation(), parallel.Allocation()
	for i := range sa.Rates {
		if sa.Rates[i] != pa.Rates[i] {
			t.Fatalf("iter %d workers %d: rate[%d] = %v, serial %v",
				iter, workers, i, pa.Rates[i], sa.Rates[i])
		}
	}
	for j := range sa.Consumers {
		if sa.Consumers[j] != pa.Consumers[j] {
			t.Fatalf("iter %d workers %d: consumers[%d] = %d, serial %d",
				iter, workers, j, pa.Consumers[j], sa.Consumers[j])
		}
	}
	sn, pn := serial.NodePrices(), parallel.NodePrices()
	for b := range sn {
		if sn[b] != pn[b] {
			t.Fatalf("iter %d workers %d: nodePrice[%d] = %v, serial %v",
				iter, workers, b, pn[b], sn[b])
		}
	}
	sl, pl := serial.LinkPrices(), parallel.LinkPrices()
	for l := range sl {
		if sl[l] != pl[l] {
			t.Fatalf("iter %d workers %d: linkPrice[%d] = %v, serial %v",
				iter, workers, l, pl[l], sl[l])
		}
	}
	sg, pg := serial.Gammas(), parallel.Gammas()
	for b := range sg {
		if sg[b] != pg[b] {
			t.Fatalf("iter %d workers %d: gamma[%d] = %v, serial %v",
				iter, workers, b, pg[b], sg[b])
		}
	}
}

// sameStep reports whether two StepResults agree on every field that does
// not depend on the worker count; ShardImbalance does by construction.
func sameStep(a, b StepResult) bool {
	a.ShardImbalance, b.ShardImbalance = 0, 0
	return a == b
}

// TestParallelStepBitIdentical steps serial and parallel engines in
// lockstep for over 100 iterations on random workloads (with and without
// link bottlenecks, fixed and adaptive gamma), including mid-run mutations
// between Step calls, and requires exact equality throughout.
func TestParallelStepBitIdentical(t *testing.T) {
	const iters = 120
	rng := rand.New(rand.NewSource(20060406))
	for trial := 0; trial < 4; trial++ {
		p := parallelTestProblem(rng, trial%2 == 1)
		cfg := Config{Adaptive: trial%2 == 0}
		if !cfg.Adaptive {
			cfg.Gamma = 0.01 + rng.Float64()*0.2
		}

		serialCfg := cfg
		serialCfg.workers = 1

		for _, workers := range []int{2, 4, 8} {
			parCfg := cfg
			parCfg.workers = workers
			par, err := NewEngine(p.Clone(), parCfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}

			// Replay the serial engine from scratch alongside each
			// parallel engine so both see the same mutation schedule.
			ser, err := NewEngine(p.Clone(), serialCfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			mutate := func(e *Engine, it int) {
				// Mid-run workload changes are applied between Step
				// calls, the only safe point for an engine whose Step
				// may fan out over worker goroutines.
				switch it {
				case 40:
					e.SetFlowActive(0, false)
				case 60:
					if err := e.SetClassDemand(1, 7); err != nil {
						t.Fatal(err)
					}
				case 80:
					e.SetFlowActive(0, true)
					if err := e.SetNodeCapacity(1, 2*workload.NodeCapacity); err != nil {
						t.Fatal(err)
					}
				}
			}
			for it := 0; it < iters; it++ {
				mutate(ser, it)
				mutate(par, it)
				rs, rp := ser.Step(), par.Step()
				if !sameStep(rs, rp) {
					t.Fatalf("trial %d workers %d iter %d: StepResult %+v, serial %+v",
						trial, workers, it, rp, rs)
				}
				if it%10 == 0 || it == iters-1 {
					assertStateEqual(t, it, workers, ser, par)
				}
			}
			assertStateEqual(t, iters, workers, ser, par)
			par.Close()
		}
	}
}

// TestParallelSolveMatchesSerial checks the whole Solve loop (convergence
// detection included) end-to-end at several worker counts.
func TestParallelSolveMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := parallelTestProblem(rng, true)
	ser, err := NewEngine(p.Clone(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ser.Solve(150)
	for _, workers := range []int{2, 4, 8} {
		par, err := NewEngine(p.Clone(), Config{Adaptive: true, workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := par.Solve(150)
		par.Close()
		if got.Utility != want.Utility || got.Iterations != want.Iterations ||
			got.Converged != want.Converged || got.ConvergedAt != want.ConvergedAt {
			t.Fatalf("workers %d: Solve result %+v, serial %+v", workers, got, want)
		}
		for i := range want.Trace {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("workers %d: trace[%d] = %v, serial %v",
					workers, i, got.Trace[i], want.Trace[i])
			}
		}
	}
}

// TestWorkersDefaultResolvesToShardBudget pins the shard budget:
// shardsPerProc × GOMAXPROCS, one shard at GOMAXPROCS 1, unless a test set
// one; and small problems stay one shard whatever it is.
func TestWorkersDefaultResolvesToShardBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for procs, want := range map[int]int{1: 1, 2: 2 * shardsPerProc, 3: 3 * shardsPerProc} {
		runtime.GOMAXPROCS(procs)
		if got := (Config{}).WithDefaults().workers; got != want {
			t.Errorf("GOMAXPROCS %d: default budget = %d, want %d", procs, got, want)
		}
	}
	if got := (Config{workers: 3}).WithDefaults().workers; got != 3 {
		t.Errorf("budget 3 normalized to %d", got)
	}
	// The base workload (6 flows, 3 nodes) is below the parallel cutover:
	// no pool regardless of the budget.
	e, err := NewEngine(workload.Base(), Config{workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.pool != nil {
		t.Error("base workload unexpectedly sharded")
	}
	if s := e.Snapshot(); s.Sharded || s.Workers != 8 {
		t.Errorf("snapshot reports Sharded=%v Workers=%d, want false/8", s.Sharded, s.Workers)
	}
}

// TestShardBudgetIsAMultipleOfGOMAXPROCS: the budget is read once, at
// NewEngine. An engine built under GOMAXPROCS 4 may plan up to
// shardsPerProc × 4 shards and plans the widest of them, its halves and 4
// that its components pack onto — 8 for eight copies of the base problem —
// and keeps that plan across a ResetRouting after GOMAXPROCS is lowered; one
// built under 1 plans one shard and starts no pool. A topology that packs at
// GOMAXPROCS shards never packs narrower: three components are too few for
// the budget at GOMAXPROCS 2 and still get the two shards a budget of
// GOMAXPROCS gave them.
func TestShardBudgetIsAMultipleOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := fusedTestProblem(8, 2, false)
	e, err := NewEngine(p, Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if s := e.Snapshot(); e.plan.shards != 8 || s.Workers != 4*shardsPerProc {
		t.Fatalf("built under GOMAXPROCS 4: %d shards of a budget of %d, want 8 of %d",
			e.plan.shards, s.Workers, 4*shardsPerProc)
	}
	runtime.GOMAXPROCS(1)
	e.Step()
	if err := e.ResetRouting(e.Problem(), model.RoutingDelta{}); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); e.plan.shards != 8 || s.Workers != 4*shardsPerProc || !s.Sharded {
		t.Errorf("after ResetRouting under GOMAXPROCS 1: %d shards, snapshot Workers=%d Sharded=%v; want 8, %d, true",
			e.plan.shards, s.Workers, s.Sharded, 4*shardsPerProc)
	}
	one, err := NewEngine(p.Clone(), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if s := one.Snapshot(); one.plan.shards != 1 || s.Workers != 1 || s.Sharded || one.pool != nil {
		t.Errorf("built under GOMAXPROCS 1: %d shards, snapshot Workers=%d Sharded=%v, pool %v; want 1, 1, false, none",
			one.plan.shards, s.Workers, s.Sharded, one.pool != nil)
	}

	runtime.GOMAXPROCS(2)
	three := fusedTestProblem(3, 1, false)
	for _, budget := range []int{2, 0} {
		e, err := NewEngine(three.Clone(), Config{Adaptive: true, workers: budget})
		if err != nil {
			t.Fatal(err)
		}
		if e.plan.components != 3 || e.plan.shards != 2 {
			t.Errorf("budget %d under GOMAXPROCS 2: %d components on %d shards, want 3 on 2",
				e.cfg.workers, e.plan.components, e.plan.shards)
		}
		e.Close()
	}
}

// TestEngineCloseIdempotent: Close must be safe to call repeatedly, with
// and without a pool.
func TestEngineCloseIdempotent(t *testing.T) {
	ser, err := NewEngine(workload.Base(), Config{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ser.Close()
	ser.Close()

	par, err := NewEngine(fusedTestProblem(8, 2, false), Config{workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.pool == nil {
		t.Fatal("expected a pool")
	}
	par.Step()
	par.Close()
	par.Close()
}

// TestStepSerialNoAllocs: a one-shard Step must not allocate — the
// admission sort, the rate solvers and the price updates all run on
// preallocated state. This is the perf guardrail for small problems that
// never clear the parallel cutover.
func TestStepSerialNoAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{workers: 1, Adaptive: true},
		{workers: 1, Gamma: 0.1},
	} {
		e, err := NewEngine(workload.Base(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Step() // warm up
		if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
			t.Errorf("config %+v: %v allocs per serial Step, want 0", cfg, allocs)
		}
	}
}

// TestStepParallelNoAllocs: the one-shard fallback of an entangled
// topology that asked for workers must not allocate either
// (TestStepFusedNoAllocs covers the pool dispatch).
func TestStepParallelNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e, err := NewEngine(parallelTestProblem(rng, true), Config{workers: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.plan.shards != 1 {
		t.Fatalf("entangled workload got %d shards, want 1", e.plan.shards)
	}
	e.Step()
	if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
		t.Errorf("%v allocs per Step, want 0", allocs)
	}
}
