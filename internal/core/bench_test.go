package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/utility"
	"repro/internal/workload"
)

// Micro-benchmarks for the optimizer's inner loops; the table/figure-level
// benchmarks live in the repository root's bench_test.go.

func BenchmarkEngineStepBase(b *testing.B) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStepLarge(b *testing.B) {
	e, err := NewEngine(workload.Scaled(workload.Config{FlowCopies: 4, NodeSetCopies: 2}), Config{Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepMedium is the reference point for the telemetry
// overhead bound: ISSUE 3 requires the enabled-path cost to stay under 5%
// of this benchmark's ns/op (compare against
// BenchmarkEngineStepTelemetryOn, which runs the same workload).
func BenchmarkEngineStepMedium(b *testing.B) {
	p := workload.Scaled(workload.Config{FlowCopies: 8, NodeSetCopies: 4})
	e, err := NewEngine(p, Config{Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepTelemetryOff / ...On measure the instrumentation
// cost on the medium workload. Off is asserted allocation-free (the
// nil-handle path must stay one predictable branch); On differs only by
// Config.Telemetry and the two clock reads per stage.
func BenchmarkEngineStepTelemetryOff(b *testing.B) {
	p := workload.Scaled(workload.Config{FlowCopies: 8, NodeSetCopies: 4})
	e, err := NewEngine(p, Config{Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Step()
	if allocs := testing.AllocsPerRun(10, func() { e.Step() }); allocs > 0 {
		b.Fatalf("%v allocs per untelemetered Step, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStepTelemetryOn(b *testing.B) {
	p := workload.Scaled(workload.Config{FlowCopies: 8, NodeSetCopies: 4})
	em := telemetry.NewEngineMetrics(telemetry.NewRegistry())
	e, err := NewEngine(p, Config{Adaptive: true, Telemetry: em})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepHuge is the serial-vs-parallel headline benchmark:
// a production-scale workload (96 flows, 384 nodes, 2560 classes) stepped
// at increasing shard budgets. workers=1 is the serial baseline; the
// parallel sub-benchmarks shard every stage. `make bench-core` records the
// trajectory in BENCH_core.json.
func BenchmarkEngineStepHuge(b *testing.B) {
	p := workload.Scaled(workload.Config{FlowCopies: 16, NodeSetCopies: 8})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, err := NewEngine(p, Config{Adaptive: true, workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// metroOnce lazily builds the full metro problem (10k flows, 100k nodes,
// 1M classes; ~100ms and a few hundred MB) once, shared read-only across
// the worker sub-benchmarks.
var metroOnce struct {
	sync.Once
	p *model.Problem
}

// BenchmarkEngineStepMetro is the headline scaling benchmark: the full
// metro workload stepped at increasing worker counts after settling to
// steady state, where the hot pods keep roughly a quarter of the flows
// orbiting the admission/price limit cycle and the cold pods quiesce onto
// the incremental skip path. The pod structure is componentized, so the
// sharded engines run the fused single-barrier schedule (DESIGN.md §5).
// Build plus settle cost tens of seconds, so -short (and the CI
// bench-smoke) runs BenchmarkEngineStepMetroSmall instead.
func BenchmarkEngineStepMetro(b *testing.B) {
	if testing.Short() {
		b.Skip("full metro benchmark in -short mode")
	}
	metroOnce.Do(func() { metroOnce.p = workload.Metro() })
	benchMetroWorkers(b, metroOnce.p, 80)
}

// BenchmarkEngineStepMetroSmall is the CI-sized metro scaling smoke: same
// pod structure and steady-state mix at 1/400th the class count, small
// enough for -benchtime=1x runs and the scripts/bench-scaling.sh assert.
func BenchmarkEngineStepMetroSmall(b *testing.B) {
	benchMetroWorkers(b, workload.MetroSmall(), 120)
}

func benchMetroWorkers(b *testing.B, p *model.Problem, settle int) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, err := NewEngine(p, Config{Adaptive: true, workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < settle; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// steadyStateProblem is the Huge workload (96 flows, 384 nodes, 2560
// classes) in its production steady state: flow copy 0's node sets stay at
// the paper's capacity and keep orbiting the admission/price limit cycle
// (a saturated LRGP subsystem never freezes), while the other 15 copies
// have capacity headroom, admit all demand and reach an exact float
// fixpoint. At steady state 6/96 flows stay dirty and 360/384 nodes are
// skipped — the sparsity the incremental Step monetizes.
func steadyStateProblem() *model.Problem {
	p := workload.Scaled(workload.Config{FlowCopies: 16, NodeSetCopies: 8})
	for b := 24; b < len(p.Nodes); b++ {
		p.Nodes[b].Capacity *= 250
	}
	return p
}

// BenchmarkEngineStepSteadyState is the incremental-engine headline
// benchmark: the post-convergence Step on the mixed steady-state workload,
// incremental (what Step does) vs full recompute (the test-only forceFull
// oracle, re-forced inside the timed loop), serial and sharded. The ISSUE 5
// acceptance bar is incremental ≥ 2x faster than full at workers=1.
func BenchmarkEngineStepSteadyState(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"incremental", false}, {"full", true}} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(b *testing.B) {
				e, err := NewEngine(steadyStateProblem(), Config{Adaptive: true, workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				for i := 0; i < 700; i++ {
					e.Step() // settle: converge + quiesce the provisioned copies
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode.full {
						forceFull(e)
					}
					e.Step()
				}
			})
		}
	}
}

// BenchmarkSweepWarmStart measures re-solving a 6-point capacity sweep on
// the Large workload: cold constructs a fresh engine per point (the old
// lrgp-experiments behavior), warm Resets one engine through the points in
// order, re-solving each from the previous fixpoint.
func BenchmarkSweepWarmStart(b *testing.B) {
	scales := []float64{1, 0.9, 0.8, 0.95, 1.1, 1.25}
	points := make([]*model.Problem, len(scales))
	for k, s := range scales {
		points[k] = workload.Scaled(workload.Config{FlowCopies: 4, NodeSetCopies: 2})
		for n := range points[k].Nodes {
			points[k].Nodes[n].Capacity *= s
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range points {
				e, err := NewEngine(p.Clone(), Config{Adaptive: true, workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				e.Solve(400)
				e.Close()
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e, err := NewEngine(points[0].Clone(), Config{Adaptive: true, workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		e.Solve(400)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range points {
				if err := e.Reset(p); err != nil {
					b.Fatal(err)
				}
				e.Solve(400)
			}
		}
	})
}

func BenchmarkEngineSolveBase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(workload.Base(), Config{Adaptive: true})
		if err != nil {
			b.Fatal(err)
		}
		e.Solve(250)
	}
}

func BenchmarkGreedyPopulations(b *testing.B) {
	p := workload.Base()
	ix := model.NewIndex(p)
	rates := make([]float64, len(p.Flows))
	for i := range rates {
		rates[i] = 20
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyPopulations(p, ix, rates)
	}
}

func BenchmarkRateSolverClosedForm(b *testing.B) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20), utility.NewLog(5), utility.NewLog(1))
	rs := newRateSolver(p, ix, 0)
	consumers := []int{100, 200, 300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.solve(consumers, 37.5)
	}
}

func BenchmarkRateSolverBisection(b *testing.B) {
	p, ix := rateProblem(10, 1000, utility.NewLog(20), utility.NewPower(10, 0.5))
	rs := newRateSolver(p, ix, 0)
	consumers := []int{100, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.solve(consumers, 37.5)
	}
}

// churnEngine is the demand_churn cycle's optimizer half without the
// broker: MetroSmall with every class's demand at half its ceiling, solved
// once, plus the seeded stream of ±1 demand moves an attach/detach batch
// becomes by the time the autopilot hands it to SetClassDemand.
type churnEngine struct {
	*Engine
	rng    *rand.Rand
	demand []int
}

func newChurnEngine(tb testing.TB, cfg Config) *churnEngine {
	p := workload.MetroSmall()
	demand := make([]int, len(p.Classes))
	for j := range p.Classes {
		p.Classes[j].MaxConsumers /= 2
		demand[j] = p.Classes[j].MaxConsumers
	}
	e, err := NewEngine(p, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e.Solve(4000)
	return &churnEngine{Engine: e, rng: rand.New(rand.NewSource(1)), demand: demand}
}

// batch applies ops seeded ±1 demand moves.
func (c *churnEngine) batch(tb testing.TB, ops int) {
	for k := 0; k < ops; k++ {
		j := c.rng.Intn(len(c.demand))
		if c.rng.Intn(2) == 0 && c.demand[j] > 0 {
			c.demand[j]--
		} else {
			c.demand[j]++
		}
		if err := c.SetClassDemand(model.ClassID(j), c.demand[j]); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkWarmResolveChurn is one demand_churn cycle as the engine sees
// it: a 200-op batch, then the autopilot's Solve(100). iters/op is the
// mean iteration count of those solves.
func BenchmarkWarmResolveChurn(b *testing.B) {
	c := newChurnEngine(b, Config{Adaptive: true})
	defer c.Close()
	for i := 0; i < 20; i++ {
		c.batch(b, 200)
		c.Solve(100)
	}
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.batch(b, 200)
		iters += c.Solve(100).Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
