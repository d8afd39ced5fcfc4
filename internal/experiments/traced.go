package experiments

import (
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TracedRun solves the base workload with the adaptive engine, writing one
// telemetry.IterationRecord per iteration to tw (core.Engine.SolveTraced).
// The caller owns tw and must Flush it.
func TracedRun(opts Options, tw *telemetry.TraceWriter) (core.Result, error) {
	o := opts.normalized()
	em := telemetry.NewEngineMetrics(telemetry.NewRegistry())
	e, err := core.NewEngine(workload.Base(), core.Config{Adaptive: true, Telemetry: em})
	if err != nil {
		return core.Result{}, err
	}
	defer e.Close()
	return e.SolveTraced(o.Iterations, tw)
}
