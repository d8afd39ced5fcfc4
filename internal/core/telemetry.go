package core

import "repro/internal/telemetry"

// Stage indices of StepResult.StageNanos: the three phases of one LRGP
// iteration in execution order.
const (
	// StageRate is Algorithm 1, the per-flow rate allocation.
	StageRate = iota
	// StageAdmission is Algorithm 2 plus the Equation 12 node-price
	// update (they run fused, per node).
	StageAdmission
	// StagePrice is the Equation 13 link-price update.
	StagePrice
)

// StopReason says why an Engine.Solve returned (Result.Stop). It labels
// lrgp_solve_stop_total.
type StopReason uint8

const (
	// StopBudget: maxIter iterations ran without the convergence rule
	// being met.
	StopBudget StopReason = iota
	// StopWindow: the 0.1% amplitude rule was met over a trailing window
	// of this solve's own iterations — the only way a cold solve converges.
	StopWindow
	// StopDrained: the rule was met over a window reaching back into
	// earlier solves, and the Step's work counters had stopped changing: a
	// warm re-solve whose perturbation merged into the steady state early.
	StopDrained
	// StopSettled: nothing had touched the engine since its last converged
	// solve, so no iteration ran.
	StopSettled
)

var stopNames = [4]string{"budget", "window", "drained", "settled"}

// String returns the reason's label value.
func (r StopReason) String() string { return stopNames[r] }

// engineMetrics are the lrgp_engine_* and lrgp_solve_stop_total families
// NewEngine registers on Config.Telemetry. They are observed as Step and
// Solve run: the engine's state belongs to its caller's goroutine, so a
// scrape could not read it. Every observation is an atomic update.
type engineMetrics struct {
	steps              *telemetry.Counter
	stageSeconds       [3]*telemetry.Histogram // by stage index
	utility            *telemetry.Gauge
	maxNodeOverload    *telemetry.Gauge
	maxLinkOverload    *telemetry.Gauge
	nodePriceUpdates   *telemetry.Counter // one per Step per armed node
	linkPriceUpdates   *telemetry.Counter // one per Step per armed link
	dirtyFlows         *telemetry.Gauge
	skippedConstraints *telemetry.Gauge
	converged          *telemetry.Gauge
	convergedIteration *telemetry.Gauge
	solveStops         [4]*telemetry.Counter // by StopReason
}

// newEngineMetrics registers the engine's families on reg, the stage
// histograms with the DurationBuckets layout. Registering twice on one
// registry returns the same instruments, so engines sharing a registry
// add to one set of counters.
func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	m := &engineMetrics{
		steps: reg.Counter("lrgp_engine_steps_total", "Completed LRGP iterations (Engine.Step calls)."),
		utility: reg.Gauge("lrgp_engine_utility",
			"Objective value (Equation 1) after the most recent iteration."),
		maxNodeOverload: reg.Gauge("lrgp_engine_max_node_overload",
			"Largest node usage minus capacity after the most recent iteration."),
		maxLinkOverload: reg.Gauge("lrgp_engine_max_link_overload",
			"Largest link usage minus capacity after the most recent iteration."),
		nodePriceUpdates: reg.Counter("lrgp_engine_price_updates_total",
			"Price recomputations by resource.", telemetry.Label{Key: "resource", Value: "node"}),
		linkPriceUpdates: reg.Counter("lrgp_engine_price_updates_total",
			"Price recomputations by resource.", telemetry.Label{Key: "resource", Value: "link"}),
		dirtyFlows: reg.Gauge("lrgp_engine_dirty_flows",
			"Flows re-solved by the most recent incremental iteration."),
		skippedConstraints: reg.Gauge("lrgp_engine_skipped_constraints",
			"Armed node+link constraints that reused cached state in the most recent iteration."),
		converged: reg.Gauge("lrgp_engine_converged",
			"1 once the 0.1% amplitude convergence rule has been met, else 0."),
		convergedIteration: reg.Gauge("lrgp_engine_converged_iteration",
			"Iteration at which convergence was first detected, or -1."),
	}
	for s, name := range [3]string{"rate", "admission", "price"} {
		m.stageSeconds[s] = reg.Histogram("lrgp_engine_stage_seconds",
			"Wall time of each Step stage.", telemetry.DurationBuckets(),
			telemetry.Label{Key: "stage", Value: name})
	}
	for r, name := range stopNames {
		m.solveStops[r] = reg.Counter("lrgp_solve_stop_total",
			"Engine.Solve calls by stop reason.", telemetry.Label{Key: "reason", Value: name})
	}
	m.convergedIteration.Set(-1)
	return m
}

// observeStep records one completed Step and the armed constraints whose
// prices it recomputed.
func (m *engineMetrics) observeStep(r *StepResult, armedNodes, armedLinks int) {
	m.steps.Inc()
	for s, h := range m.stageSeconds {
		h.ObserveSeconds(r.StageNanos[s])
	}
	m.utility.Set(r.Utility)
	m.maxNodeOverload.Set(r.MaxNodeOverload)
	m.maxLinkOverload.Set(r.MaxLinkOverload)
	m.nodePriceUpdates.Add(uint64(armedNodes))
	m.linkPriceUpdates.Add(uint64(armedLinks))
	m.dirtyFlows.Set(float64(r.DirtyFlows))
	m.skippedConstraints.Set(float64(r.SkippedNodes + r.SkippedLinks))
}

// observeSolve records why a Solve returned and the iteration at which
// it converged (-1 when it did not). A nil m records nothing.
func (m *engineMetrics) observeSolve(stop StopReason, at int) {
	if m == nil {
		return
	}
	converged := 0.0
	if stop != StopBudget {
		converged = 1
	}
	m.converged.Set(converged)
	m.convergedIteration.Set(float64(at))
	m.solveStops[stop].Inc()
}
