package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ScalingRow is one GOMAXPROCS setting's measured Step cost on the scaling
// workload.
type ScalingRow struct {
	// GOMAXPROCS is the setting the row's engine was built under, which
	// sets its shard budget (a fixed multiple of it, one shard at 1).
	GOMAXPROCS int
	// Mode reports how Step executed: "serial" (one shard on the caller)
	// or "sharded" (whole components fanned out over the worker pool), and
	// Shards over how many.
	Mode   string
	Shards int
	// NsPerStep is the mean steady-state Step wall time.
	NsPerStep float64
	// Speedup is the GOMAXPROCS=1 NsPerStep divided by this row's.
	Speedup float64
}

// ScalingResult is the X9 scaling experiment's output.
type ScalingResult struct {
	// Workload is the resolved workload spec.
	Workload string
	// Flows, Nodes and Classes record the instance size.
	Flows, Nodes, Classes int
	// Settle and Measured are the iteration counts spent reaching steady
	// state and timing, per row.
	Settle, Measured int
	// Rows has one entry per GOMAXPROCS setting, ascending.
	Rows []ScalingRow
}

// ScalingExperiment measures steady-state Step wall time against GOMAXPROCS
// — which sets the engine's shard budget — on a named workload (Options.Workload;
// default the metro-small pod preset, whose componentized structure shards
// — DESIGN.md §5). Each row sets GOMAXPROCS for its engine, as go test -cpu
// does, and the setting the caller had is restored on return. Each engine
// first settles so the dirty-set skip path is active, as in production
// steady state; results are bit-identical across rows, so they differ only
// in wall clock. Wall times are machine- and load-dependent: on a
// single-CPU host every speedup sits near 1.0 by construction.
func ScalingExperiment(opts Options) (*ScalingResult, error) {
	o := opts.normalized()
	spec := o.Workload
	if spec == "" {
		spec = "metro-small"
	}
	p, err := workload.Parse(spec, 0)
	if err != nil {
		return nil, err
	}

	res := &ScalingResult{
		Workload: spec,
		Flows:    len(p.Flows),
		Nodes:    len(p.Nodes),
		Classes:  len(p.Classes),
		Settle:   o.Iterations / 2,
		Measured: o.Iterations,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		e, err := core.NewEngine(p, core.Config{Adaptive: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < res.Settle; i++ {
			e.Step()
		}
		start := time.Now()
		for i := 0; i < res.Measured; i++ {
			e.Step()
		}
		elapsed := time.Since(start)
		snap := e.Snapshot()
		mode := "serial"
		if snap.Sharded {
			mode = "sharded"
		}
		row := ScalingRow{
			GOMAXPROCS: procs,
			Mode:       mode,
			Shards:     len(snap.ShardWork),
			NsPerStep:  float64(elapsed.Nanoseconds()) / float64(res.Measured),
			Speedup:    1,
		}
		if len(res.Rows) > 0 && row.NsPerStep > 0 {
			row.Speedup = res.Rows[0].NsPerStep / row.NsPerStep
		}
		res.Rows = append(res.Rows, row)
		e.Close()
	}
	return res, nil
}

// RenderScaling renders the scaling experiment as a table.
func RenderScaling(res *ScalingResult) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("X9: Step scaling vs GOMAXPROCS (%s: %d flows, %d nodes, %d classes; %d steps after %d settling)",
			res.Workload, res.Flows, res.Nodes, res.Classes, res.Measured, res.Settle),
		"GOMAXPROCS", "Mode", "Shards", "ns/step", "Speedup")
	for _, r := range res.Rows {
		t.Add(
			fmt.Sprint(r.GOMAXPROCS),
			r.Mode,
			fmt.Sprint(r.Shards),
			fmt.Sprintf("%.0f", r.NsPerStep),
			fmt.Sprintf("%.2fx", r.Speedup),
		)
	}
	return t
}
