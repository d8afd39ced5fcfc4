package telemetry

// This file defines the nil-safe instrumentation handles the hot paths
// hold. A nil handle disables instrumentation entirely: every method
// checks its receiver first, so callers need no conditional wiring and
// the disabled path costs one predictable branch.

// Engine stage indices for StageSeconds and StepResult.StageNanos: the
// three phases of one LRGP iteration in execution order.
const (
	// StageRate is Algorithm 1, the per-flow rate allocation.
	StageRate = iota
	// StageAdmission is Algorithm 2 plus the Equation 12 node-price
	// update (they run fused, per node).
	StageAdmission
	// StagePrice is the Equation 13 link-price update.
	StagePrice
)

// stageNames labels the stage histograms in exposition output.
var stageNames = [3]string{"rate", "admission", "price"}

// StopReason says why an Engine.Solve returned. It indexes
// EngineMetrics.SolveStops and labels lrgp_solve_stop_total.
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

// EngineMetrics instruments core.Engine: per-stage wall-time histograms,
// step and price-update counters, and gauges tracking the most recent
// iteration's utility, overloads and convergence state. Construct with
// NewEngineMetrics and pass via core.Config.Telemetry; a nil handle
// disables everything.
type EngineMetrics struct {
	// Steps counts completed Engine.Step calls.
	Steps *Counter
	// StageSeconds holds one wall-time histogram per Step stage,
	// indexed by StageRate/StageAdmission/StagePrice.
	StageSeconds [3]*Histogram
	// Utility is the objective value after the most recent step.
	Utility *Gauge
	// MaxNodeOverload and MaxLinkOverload mirror the most recent
	// StepResult's overloads (usage minus capacity; negative = slack).
	MaxNodeOverload *Gauge
	MaxLinkOverload *Gauge
	// NodePriceUpdates and LinkPriceUpdates count Equation 12/13 price
	// recomputations: one per step per armed node resp. link — one that
	// holds a price, carries a class or that the flows crossing it could
	// fill at their RateMax; the engine sweeps no others.
	NodePriceUpdates *Counter
	LinkPriceUpdates *Counter
	// DirtyFlows is the number of flows whose rate problem the most
	// recent iteration actually re-solved; SkippedConstraints is the
	// number of armed node and link constraints that reused their cached
	// admission/usage instead of recomputing. Together they expose how
	// quiet the incremental engine's dirty set has become.
	DirtyFlows         *Gauge
	SkippedConstraints *Gauge
	// Converged is 1 once the paper's 0.1% amplitude rule has been met
	// during a Solve, else 0; ConvergedIteration is the 1-based
	// iteration of first detection, or -1.
	Converged          *Gauge
	ConvergedIteration *Gauge
	// SolveStops counts Solve calls by why they returned, indexed by
	// StopReason: it tells an early exit from a full window without
	// reading iteration counts.
	SolveStops [4]*Counter
}

// NewEngineMetrics registers the engine metric family in reg and returns
// the handle, with the DurationBuckets stage layout.
func NewEngineMetrics(reg *Registry) *EngineMetrics {
	stageBuckets := DurationBuckets()
	m := &EngineMetrics{
		Steps: reg.Counter("lrgp_engine_steps_total", "Completed LRGP iterations (Engine.Step calls)."),
		Utility: reg.Gauge("lrgp_engine_utility",
			"Objective value (Equation 1) after the most recent iteration."),
		MaxNodeOverload: reg.Gauge("lrgp_engine_max_node_overload",
			"Largest node usage minus capacity after the most recent iteration."),
		MaxLinkOverload: reg.Gauge("lrgp_engine_max_link_overload",
			"Largest link usage minus capacity after the most recent iteration."),
		NodePriceUpdates: reg.Counter("lrgp_engine_price_updates_total",
			"Price recomputations by resource.", Label{Key: "resource", Value: "node"}),
		LinkPriceUpdates: reg.Counter("lrgp_engine_price_updates_total",
			"Price recomputations by resource.", Label{Key: "resource", Value: "link"}),
		DirtyFlows: reg.Gauge("lrgp_engine_dirty_flows",
			"Flows re-solved by the most recent incremental iteration."),
		SkippedConstraints: reg.Gauge("lrgp_engine_skipped_constraints",
			"Armed node+link constraints that reused cached state in the most recent iteration."),
		Converged: reg.Gauge("lrgp_engine_converged",
			"1 once the 0.1% amplitude convergence rule has been met, else 0."),
		ConvergedIteration: reg.Gauge("lrgp_engine_converged_iteration",
			"Iteration at which convergence was first detected, or -1."),
	}
	for s, name := range stageNames {
		m.StageSeconds[s] = reg.Histogram("lrgp_engine_stage_seconds",
			"Wall time of each Step stage.", stageBuckets,
			Label{Key: "stage", Value: name})
	}
	for r, name := range stopNames {
		m.SolveStops[r] = reg.Counter("lrgp_solve_stop_total",
			"Engine.Solve calls by stop reason.", Label{Key: "reason", Value: name})
	}
	m.ConvergedIteration.Set(-1)
	return m
}

// ObserveStep records one completed iteration: the three stage wall
// times (nanoseconds), the resulting utility and overloads, the number of
// node/link price updates performed, and the iteration's dirty-set size
// (flows re-solved, constraints skipped). Lock-free, 0 allocs.
func (m *EngineMetrics) ObserveStep(stageNanos [3]int64, utility, maxNodeOverload, maxLinkOverload float64, nodes, links, dirtyFlows, skippedConstraints int) {
	if m == nil {
		return
	}
	m.Steps.Inc()
	for s := range m.StageSeconds {
		m.StageSeconds[s].ObserveSeconds(stageNanos[s])
	}
	m.Utility.Set(utility)
	m.MaxNodeOverload.Set(maxNodeOverload)
	m.MaxLinkOverload.Set(maxLinkOverload)
	m.NodePriceUpdates.Add(uint64(nodes))
	m.LinkPriceUpdates.Add(uint64(links))
	m.DirtyFlows.Set(float64(dirtyFlows))
	m.SkippedConstraints.Set(float64(skippedConstraints))
}

// ObserveConvergence records a convergence detector's verdict after a
// Solve run (iterations-to-convergence, or -1 when the rule was never
// met).
func (m *EngineMetrics) ObserveConvergence(converged bool, at int) {
	if m == nil {
		return
	}
	if converged {
		m.Converged.Set(1)
	} else {
		m.Converged.Set(0)
	}
	m.ConvergedIteration.Set(float64(at))
}

// ObserveSolveStop counts one finished Solve under its stop reason.
func (m *EngineMetrics) ObserveSolveStop(r StopReason) {
	if m == nil {
		return
	}
	m.SolveStops[r].Inc()
}
