package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SweepRow records one capacity scale of the warm-start sweep: the same
// point solved cold (fresh engine, prices and rates from zero) and warm
// (Engine.Reset from the previous point's fixpoint).
type SweepRow struct {
	// Scale multiplies every node capacity of the base workload.
	Scale float64
	// Cold-start results.
	ColdUtility     float64
	ColdConverged   bool
	ColdConvergedAt int
	// Warm-start results (first point is solved cold by definition, so
	// its warm numbers equal the cold ones).
	WarmUtility     float64
	WarmConverged   bool
	WarmConvergedAt int
}

// itersOrMax returns the iterations-to-converge, or max when the 0.1%
// amplitude rule was never met within the horizon.
func itersOrMax(converged bool, at, max int) int {
	if converged {
		return at
	}
	return max
}

// SweepResult is the full cold-vs-warm sweep record.
type SweepResult struct {
	Rows []SweepRow
	// Horizon is the per-point iteration budget.
	Horizon int
	// ColdIters and WarmIters total the iterations-to-converge across all
	// points (unconverged points count the full horizon), the number the
	// warm-start API exists to shrink.
	ColdIters int
	WarmIters int
}

// WarmStartSweep solves the base workload across a node-capacity sweep
// twice: cold constructs a fresh engine per point (every price and rate
// restarts from the initializer), warm keeps one engine and Engine.Reset's
// it onto each point in order, re-solving from the neighboring fixpoint.
// Both traversals visit identical problems, so the utilities agree to
// within the convergence band (a saturated workload orbits a small limit
// cycle, so the sampled utilities differ in the last fraction of a
// percent); the interesting delta is iterations-to-converge.
func WarmStartSweep(opts Options) (*SweepResult, error) {
	o := opts.normalized()
	horizon := 2 * o.Iterations
	scales := []float64{1, 0.95, 0.9, 0.85, 0.8, 0.9, 1, 1.1}

	point := func(scale float64) *model.Problem {
		p := workload.Base()
		for b := range p.Nodes {
			p.Nodes[b].Capacity *= scale
		}
		return p
	}

	res := &SweepResult{Horizon: horizon}
	var warm *core.Engine
	for k, scale := range scales {
		row := SweepRow{Scale: scale}

		cold, err := core.NewEngine(point(scale), core.Config{Adaptive: true})
		if err != nil {
			return nil, err
		}
		cr := cold.Solve(horizon)
		cold.Close()
		row.ColdUtility = cr.Utility
		row.ColdConverged = cr.Converged
		row.ColdConvergedAt = cr.ConvergedAt

		if k == 0 {
			warm, err = core.NewEngine(point(scale), core.Config{Adaptive: true})
			if err != nil {
				return nil, err
			}
			defer warm.Close()
		} else if err := warm.Reset(point(scale)); err != nil {
			return nil, err
		}
		wr := warm.Solve(horizon)
		row.WarmUtility = wr.Utility
		row.WarmConverged = wr.Converged
		row.WarmConvergedAt = wr.ConvergedAt

		res.ColdIters += itersOrMax(row.ColdConverged, row.ColdConvergedAt, horizon)
		res.WarmIters += itersOrMax(row.WarmConverged, row.WarmConvergedAt, horizon)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderSweep renders the sweep in the experiment table layout.
func RenderSweep(res *SweepResult) *trace.Table {
	t := trace.NewTable("X8: warm-started capacity sweep (base workload, Engine.Reset)",
		"Capacity scale", "Cold iters", "Cold utility", "Warm iters", "Warm utility")
	fmtIters := func(converged bool, at int) string {
		if !converged {
			return fmt.Sprintf(">%d", res.Horizon)
		}
		return fmt.Sprint(at)
	}
	for k, r := range res.Rows {
		warmIters := fmtIters(r.WarmConverged, r.WarmConvergedAt)
		if k == 0 {
			warmIters += " (cold)"
		}
		t.Add(
			fmt.Sprintf("%.2fx", r.Scale),
			fmtIters(r.ColdConverged, r.ColdConvergedAt),
			fmt.Sprintf("%.0f", r.ColdUtility),
			warmIters,
			fmt.Sprintf("%.0f", r.WarmUtility),
		)
	}
	t.Add("total", fmt.Sprint(res.ColdIters), "", fmt.Sprint(res.WarmIters), "")
	return t
}
