package experiments

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/workload"
)

// MultirateRow compares single-rate LRGP against the multirate extension
// on one workload (X7).
type MultirateRow struct {
	Workload      string
	SingleUtility float64
	MultiUtility  float64
	GainPct       float64
	// FastDelivery / SlowDelivery show the split on the hetero workload
	// (zero for workloads without that structure).
	FastDelivery, SlowDelivery float64
}

// MultirateExperiment (X7) evaluates the multirate extension (the paper's
// deferred future work): on a heterogeneous workload (a small high-rank
// class that wants the full rate plus a large low-rank crowd that is
// nearly indifferent above a trickle) thinning pays off massively; on the
// homogeneous base workload it reproduces single-rate LRGP.
func MultirateExperiment(opts Options) ([]MultirateRow, error) {
	o := opts.normalized()

	hetero := workload.Heterogeneous()

	var rows []MultirateRow
	for _, p := range []*model.Problem{hetero, workload.Base()} {
		single, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
		if err != nil {
			return nil, err
		}
		sres := single.Solve(3 * o.Iterations)
		single.Close()

		multi, err := multirate.NewEngine(p.Clone(), core.Config{Adaptive: true})
		if err != nil {
			return nil, err
		}
		mres := multi.Solve(3 * o.Iterations)

		row := MultirateRow{
			Workload:      p.Name,
			SingleUtility: sres.Utility,
			MultiUtility:  mres.Utility,
		}
		if sres.Utility > 0 {
			row.GainPct = 100 * (mres.Utility - sres.Utility) / sres.Utility
		}
		if p == hetero {
			row.FastDelivery = mres.Allocation.Delivery[0]
			row.SlowDelivery = mres.Allocation.Delivery[1]
		}
		rows = append(rows, row)
	}
	return rows, nil
}
