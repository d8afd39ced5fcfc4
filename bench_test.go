// Package repro's benchmark suite regenerates every table and figure of
// the paper's evaluation (Section 4) as testing.B benchmarks, reporting
// the headline quantity of each artifact as a custom metric alongside the
// usual time/allocation numbers:
//
//	BenchmarkFigure1Damping      — Fig. 1, tail oscillation amplitude per gamma
//	BenchmarkFigure2AdaptiveGamma— Fig. 2, iterations to converge
//	BenchmarkFigure3Recovery     — Fig. 3, iterations to recover from flow removal
//	BenchmarkFigure4PowerUtility — Fig. 4, final utility under rank*r^0.75
//	BenchmarkTable2Scalability   — Table 2, LRGP utility and SA gap per workload
//	BenchmarkTable3UtilityShapes — Table 3, utility and convergence per shape
//	BenchmarkAsyncLRGP           — X1, asynchronous distributed LRGP
//	BenchmarkAblationAdmission   — X2, admission-control ablation
//	BenchmarkLinkBottleneck      — X3, link pricing under binding caps
//
// Annealing budgets are reduced relative to the paper's 10^8 steps so the
// full suite runs in minutes; run cmd/lrgp-experiments for the recorded
// paper-scale comparison.
package repro

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// benchOptions keeps stochastic baselines affordable inside benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{
		Iterations: 250,
		SASteps:    200_000,
		SATemps:    []float64{100, 4000},
		Seed:       1,
	}
}

// BenchmarkSolveScaled measures the public-API Solve loop on a scaled
// workload (48 flows, 96 nodes). The engine's shard budget is a multiple
// of GOMAXPROCS, so -cpu=1,4 runs it serial and sharded; results are bit-identical
// either way, so the two differ only in wall-clock.
func BenchmarkSolveScaled(b *testing.B) {
	p := workload.Scaled(workload.Config{FlowCopies: 8, NodeSetCopies: 4})
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(p, Config{Adaptive: true})
		if err != nil {
			b.Fatal(err)
		}
		res := e.Solve(100)
		e.Close()
		b.ReportMetric(res.Utility, "final-utility")
	}
}

func BenchmarkFigure1Damping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure1Damping(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		ys := fig.Series["gamma=0.1"]
		b.ReportMetric(ys[len(ys)-1], "final-utility")
	}
}

func BenchmarkFigure2AdaptiveGamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure2AdaptiveGamma(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		ys := fig.Series["adaptive gamma"]
		b.ReportMetric(ys[len(ys)-1], "final-utility")
	}
}

func BenchmarkFigure3Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3Recovery(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.RecoveryIters["adaptive gamma"]), "recovery-iters")
	}
}

func BenchmarkFigure4PowerUtility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure4PowerUtility(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		ys := fig.Series["adaptive gamma"]
		b.ReportMetric(ys[len(ys)-1], "final-utility")
	}
}

func BenchmarkTable2Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Scalability(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].LRGPUtility, "base-lrgp-utility")
		b.ReportMetric(rows[len(rows)-1].LRGPUtility, "6f24n-lrgp-utility")
		b.ReportMetric(rows[len(rows)-1].SAIncreases, "6f24n-sa-gap-pct")
	}
}

func BenchmarkTable3UtilityShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3UtilityShapes(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[3].LRGPUtility, "r075-lrgp-utility")
		b.ReportMetric(float64(rows[3].LRGPConvergedAt), "r075-converge-iters")
	}
}

func BenchmarkAsyncLRGP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AsyncExperiment(benchOptions(), time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AsyncUtility, "async-utility")
		b.ReportMetric(res.RelativeError*100, "rel-err-pct")
	}
}

func BenchmarkAblationAdmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationAdmission(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Utility, "lrgp-utility")
	}
}

func BenchmarkMultirate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MultirateExperiment(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GainPct, "hetero-gain-pct")
		b.ReportMetric(rows[0].MultiUtility, "hetero-multi-utility")
	}
}

func BenchmarkGammaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.GammaControllerAblation(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		refined := rows[len(rows)-1]
		b.ReportMetric(float64(refined.RecoveryIters), "refined-recovery-iters")
		b.ReportMetric(refined.FinalUtility, "refined-base-utility")
	}
}

func BenchmarkPathPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PruneExperiment(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UtilityGain, "utility-gain")
		b.ReportMetric(float64(res.PrunedNodeVisits), "pruned-node-visits")
	}
}

func BenchmarkMessageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OverheadExperiment(benchOptions(), 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MessagesPerRound, "base-msgs-per-round")
		b.ReportMetric(rows[len(rows)-1].MessagesPerRound, "6f24n-msgs-per-round")
	}
}

func BenchmarkLinkBottleneck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LinkBottleneckExperiment(benchOptions(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxLinkUsage*100, "max-link-use-pct")
		b.ReportMetric(res.Utility, "utility")
	}
}
