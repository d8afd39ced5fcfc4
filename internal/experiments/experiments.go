// Package experiments regenerates every table and figure of the LRGP
// paper's evaluation (Section 4), plus this repository's extension
// experiments. Each experiment returns structured results that the CLI
// renders and the benchmark suite asserts on; see EXPERIMENTS.md for the
// paper-vs-measured record.
package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options tunes the experiment harness. The zero value reproduces the
// paper's parameters at a laptop-friendly annealing budget.
type Options struct {
	// Iterations per LRGP run (default 250, the paper's horizon).
	Iterations int
	// SASteps is the full-state annealing budget per start temperature
	// (default 1e6; the paper sweeps up to 1e8).
	SASteps int
	// SATemps are the annealing start temperatures (default: the paper's
	// {5, 10, 50, 100} plus {1000, 4000}, which our full-state move set
	// needs to escape the nonconvex trap — see DESIGN.md).
	SATemps []float64
	// Seed seeds stochastic baselines.
	Seed int64
	// Workload names the instance for experiments that take one (today
	// the X9 scaling experiment): any workload.Parse spec — "metro",
	// "metro-small", "base", "<F>f-<N>n", "@file.json". Empty selects the
	// experiment's own default. The paper-reproduction experiments ignore
	// it: their workloads are fixed by the figures and tables they
	// regenerate.
	Workload string
}

func (o Options) normalized() Options {
	if o.Iterations <= 0 {
		o.Iterations = 250
	}
	if o.SASteps <= 0 {
		o.SASteps = 1_000_000
	}
	if len(o.SATemps) == 0 {
		o.SATemps = []float64{5, 10, 50, 100, 1000, 4000}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// runTrace runs an engine for n iterations and returns the utility trace,
// releasing the engine's worker pool afterwards.
func runTrace(e *core.Engine, n int) []float64 {
	defer e.Close()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, e.Step().Utility)
	}
	return out
}

// Figure1Damping reproduces Figure 1: utility over 250 iterations on the
// base workload for gamma in {1, 0.1, 0.01} (fixed gamma).
func Figure1Damping(opts Options) (*trace.SeriesSet, error) {
	o := opts.normalized()
	fig := trace.NewSeriesSet("Figure 1: the effect of damping (base workload, rank*log(1+r))", "iteration")
	for i := 0; i < o.Iterations; i++ {
		fig.X = append(fig.X, float64(i+1))
	}
	for _, gamma := range []float64{1, 0.1, 0.01} {
		e, err := core.NewEngine(workload.Base(), core.Config{Gamma: gamma})
		if err != nil {
			return nil, err
		}
		fig.AddSeries(fmt.Sprintf("gamma=%g", gamma), runTrace(e, o.Iterations))
	}
	return fig, nil
}

// Figure2AdaptiveGamma reproduces Figure 2: adaptive gamma versus a fixed
// gamma on the base workload.
func Figure2AdaptiveGamma(opts Options) (*trace.SeriesSet, error) {
	o := opts.normalized()
	fig := trace.NewSeriesSet("Figure 2: the effect of adaptive gamma (base workload)", "iteration")
	for i := 0; i < o.Iterations; i++ {
		fig.X = append(fig.X, float64(i+1))
	}

	fixed, err := core.NewEngine(workload.Base(), core.Config{Gamma: 0.01})
	if err != nil {
		return nil, err
	}
	fig.AddSeries("fixed gamma=0.01", runTrace(fixed, o.Iterations))

	adaptive, err := core.NewEngine(workload.Base(), core.Config{Adaptive: true})
	if err != nil {
		return nil, err
	}
	fig.AddSeries("adaptive gamma", runTrace(adaptive, o.Iterations))
	return fig, nil
}

// RecoveryResult augments the Figure 3 series with the recovery metrics.
type RecoveryResult struct {
	Fig *trace.SeriesSet
	// RecoveryIters maps each series name to the number of iterations
	// after the removal before the utility enters (and stays within) a
	// 0.5% band around its settled post-removal value, or -1 if it never
	// settles. Measured post hoc on the full trace, so slow smooth
	// drift — which fools an amplitude rule — counts as not recovered.
	RecoveryIters map[string]int
}

// recoveryIters returns the first index k (relative to removeAt) such that
// every subsequent value stays within band of the final value, or -1.
func recoveryIters(ys []float64, removeAt int, band float64) int {
	final := ys[len(ys)-1]
	if final == 0 {
		return -1
	}
	// Walk backwards to find the last out-of-band point.
	last := removeAt - 1
	for k := len(ys) - 1; k >= removeAt; k-- {
		if math.Abs(ys[k]-final)/math.Abs(final) > band {
			last = k
			break
		}
		if k == removeAt {
			last = removeAt - 1
		}
	}
	if last >= len(ys)-2 {
		return -1 // still out of band at the end
	}
	return last + 1 - removeAt + 1
}

// Figure3Recovery reproduces Figure 3: flow 5 (serving the highest-ranked
// classes) is removed at the midpoint and the system re-stabilizes; the
// adaptive gamma recovers faster than a small fixed gamma.
func Figure3Recovery(opts Options) (*RecoveryResult, error) {
	o := opts.normalized()
	removeAt := o.Iterations / 2

	res := &RecoveryResult{
		Fig:           trace.NewSeriesSet("Figure 3: recovery after removing flow 5", "iteration"),
		RecoveryIters: make(map[string]int),
	}
	for i := 0; i < o.Iterations; i++ {
		res.Fig.X = append(res.Fig.X, float64(i+1))
	}

	run := func(name string, cfg core.Config) error {
		e, err := core.NewEngine(workload.Base(), cfg)
		if err != nil {
			return err
		}
		defer e.Close()
		var ys []float64
		for i := 0; i < o.Iterations; i++ {
			if i == removeAt {
				e.SetFlowActive(5, false)
			}
			ys = append(ys, e.Step().Utility)
		}
		res.Fig.AddSeries(name, ys)
		res.RecoveryIters[name] = recoveryIters(ys, removeAt, 0.005)
		return nil
	}

	if err := run("fixed gamma=0.01", core.Config{Gamma: 0.01}); err != nil {
		return nil, err
	}
	if err := run("adaptive gamma", core.Config{Adaptive: true}); err != nil {
		return nil, err
	}
	return res, nil
}

// Figure4PowerUtility reproduces Figure 4: the global utility trajectory
// when class utilities are rank * r^0.75.
func Figure4PowerUtility(opts Options) (*trace.SeriesSet, error) {
	o := opts.normalized()
	fig := trace.NewSeriesSet("Figure 4: global utility with rank*r^0.75", "iteration")
	for i := 0; i < o.Iterations; i++ {
		fig.X = append(fig.X, float64(i+1))
	}
	e, err := core.NewEngine(workload.Scaled(workload.Config{Shape: workload.ShapePow75}), core.Config{Adaptive: true})
	if err != nil {
		return nil, err
	}
	fig.AddSeries("adaptive gamma", runTrace(e, o.Iterations))
	return fig, nil
}

// ComparisonRow is one workload's LRGP-versus-baselines record (Tables 2
// and 3).
type ComparisonRow struct {
	Workload string
	// LRGP results.
	LRGPUtility     float64
	LRGPIters       int
	LRGPConverged   bool
	LRGPConvergedAt int
	// Full-state simulated annealing (paper baseline).
	SAUtility   float64
	SATemp      float64
	SASteps     int
	SARuntime   time.Duration
	SAIncreases float64 // LRGP utility increase over SA, percent
	// Rates-only + greedy-population annealing (strong reference).
	RGUtility float64
	RGGap     float64 // (LRGP-RG)/RG, percent (negative when RG wins)
}

// compare runs LRGP and both annealing baselines on one problem.
func compare(p *model.Problem, o Options) (ComparisonRow, error) {
	row := ComparisonRow{Workload: p.Name}

	e, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		return row, err
	}
	defer e.Close()
	res := e.Solve(2 * o.Iterations)
	row.LRGPUtility = res.Utility
	row.LRGPIters = res.Iterations
	row.LRGPConverged = res.Converged
	row.LRGPConvergedAt = res.ConvergedAt

	sa, temp, err := anneal.SolveBestOf(p, anneal.Config{MaxSteps: o.SASteps, Seed: o.Seed}, o.SATemps)
	if err != nil {
		return row, err
	}
	row.SAUtility = sa.BestUtility
	row.SATemp = temp
	row.SASteps = sa.Steps
	row.SARuntime = sa.Runtime
	if sa.BestUtility > 0 {
		row.SAIncreases = 100 * (res.Utility - sa.BestUtility) / sa.BestUtility
	}

	rg, _, err := anneal.SolveRatesGreedyBestOf(p, anneal.Config{MaxSteps: o.SASteps / 10, Seed: o.Seed}, []float64{5, 50})
	if err != nil {
		return row, err
	}
	row.RGUtility = rg.BestUtility
	if rg.BestUtility > 0 {
		row.RGGap = 100 * (res.Utility - rg.BestUtility) / rg.BestUtility
	}
	return row, nil
}

// Table2Scalability reproduces Table 2: quality of results for LRGP and
// simulated annealing as the system grows.
func Table2Scalability(opts Options) ([]ComparisonRow, error) {
	o := opts.normalized()
	var rows []ComparisonRow
	for _, p := range workload.Table2Workloads() {
		row, err := compare(p, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3UtilityShapes reproduces Table 3: convergence and quality as the
// class utility shape varies.
func Table3UtilityShapes(opts Options) ([]ComparisonRow, error) {
	o := opts.normalized()
	var rows []ComparisonRow
	for _, s := range workload.Table3Shapes() {
		p := workload.Scaled(workload.Config{Shape: s})
		row, err := compare(p, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderComparison renders comparison rows in the paper's table layout.
func RenderComparison(title string, rows []ComparisonRow) *trace.Table {
	t := trace.NewTable(title,
		"Workload", "SA temp", "SA steps", "SA runtime", "SA utility",
		"LRGP iters", "LRGP utility", "Utility increase", "RatesGreedy utility", "LRGP vs RG")
	for _, r := range rows {
		iters := fmt.Sprint(r.LRGPConvergedAt)
		if !r.LRGPConverged {
			iters = fmt.Sprintf(">%d", r.LRGPIters)
		}
		t.Add(
			r.Workload,
			fmt.Sprintf("%g", r.SATemp),
			fmt.Sprint(r.SASteps),
			r.SARuntime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.SAUtility),
			iters,
			fmt.Sprintf("%.0f", r.LRGPUtility),
			fmt.Sprintf("%.2f%%", r.SAIncreases),
			fmt.Sprintf("%.0f", r.RGUtility),
			fmt.Sprintf("%+.2f%%", r.RGGap),
		)
	}
	return t
}
