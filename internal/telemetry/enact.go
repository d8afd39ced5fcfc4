package telemetry

// Enactment instrumentation: the lrgp_enact_* family tracks the broker's
// control-plane enact path (ApplyAllocation and the other route-snapshot
// publishers) and the autopilot's re-optimization cycles on top of it.
// Like the other handles in this package, a nil *EnactMetrics disables
// everything and every observe method is lock-free and allocation-free.

// Route-build outcomes reported by ObserveApply, mirroring the broker's
// enact modes: a no-op publishes no snapshot at all, and an incremental
// build rebuilds only the affected flows' route slices and shares the
// rest with the predecessor snapshot.
const (
	// EnactRouteNoop: the enact changed no admitted membership, so the
	// previous snapshot stayed published.
	EnactRouteNoop = iota
	// EnactRouteIncremental: only the dirty classes' flows were rebuilt;
	// every other flow's route slice is shared with the old snapshot.
	EnactRouteIncremental
)

// enactModeNames labels the route-build counter in exposition output,
// indexed by the EnactRoute* constants.
var enactModeNames = [2]string{"noop", "incremental"}

// EnactMetrics instruments the enact path. ObserveApply is called by the
// broker once per control operation that may republish the route
// snapshot; ObserveCycle is called by the autopilot once per
// re-optimization cycle. Construct with NewEnactMetrics and pass via
// broker.WithEnactTelemetry / broker.AutopilotConfig.Telemetry.
type EnactMetrics struct {
	// ApplySeconds is the wall time of one enact (diff, token-bucket
	// re-rating and snapshot publication, under the broker mutex).
	ApplySeconds *Histogram
	// RouteBuilds counts enacts by route-build outcome, indexed by the
	// EnactRoute* constants.
	RouteBuilds [2]*Counter
	// ClassesTouched counts classes whose admitted membership an enact
	// changed; FlowsTouched counts flows whose route slice was rebuilt;
	// RatesChanged counts per-flow token-bucket re-ratings. All three
	// stay flat across no-op enacts — that flatness under a steady
	// allocation is the incremental path's visible signature.
	ClassesTouched *Counter
	FlowsTouched   *Counter
	RatesChanged   *Counter
	// CyclesEnacted and CyclesSkipped count autopilot re-optimization
	// cycles by whether the re-solved allocation moved enough (relative
	// to the enact threshold) to be worth enacting.
	CyclesEnacted *Counter
	CyclesSkipped *Counter
	// CycleSeconds is the wall time of one full autopilot cycle: demand
	// estimation, warm re-solve and (possibly) enactment.
	CycleSeconds *Histogram
	// AllocationDelta is the largest relative change between the most
	// recent re-solved allocation and the last enacted one — the value
	// the enact threshold is compared against. Converging demand drives
	// it toward zero; churn keeps it alive.
	AllocationDelta *Gauge
	// Oscillation is the fraction of per-class admission changes over
	// the recent enact window that reversed the class's previous
	// direction (0 = monotone convergence, 1 = pure flapping).
	Oscillation *Gauge
	// DemandConsumers is the total attached-consumer demand the most
	// recent cycle observed across all classes.
	DemandConsumers *Gauge
}

// NewEnactMetrics registers the enact metric family in reg and returns
// the handle, with the DurationBuckets layout for both wall-time
// histograms.
func NewEnactMetrics(reg *Registry) *EnactMetrics {
	buckets := DurationBuckets()
	m := &EnactMetrics{
		ApplySeconds: reg.Histogram("lrgp_enact_apply_seconds",
			"Wall time of one broker enact (diff + snapshot publication).", buckets),
		ClassesTouched: reg.Counter("lrgp_enact_classes_touched_total",
			"Classes whose admitted membership enacts changed."),
		FlowsTouched: reg.Counter("lrgp_enact_flows_touched_total",
			"Flows whose route slice enacts rebuilt."),
		RatesChanged: reg.Counter("lrgp_enact_rates_changed_total",
			"Per-flow token-bucket re-ratings performed by enacts."),
		CyclesEnacted: reg.Counter("lrgp_enact_cycles_total",
			"Autopilot re-optimization cycles by outcome.", Label{Key: "result", Value: "enacted"}),
		CyclesSkipped: reg.Counter("lrgp_enact_cycles_total",
			"Autopilot re-optimization cycles by outcome.", Label{Key: "result", Value: "skipped"}),
		CycleSeconds: reg.Histogram("lrgp_enact_cycle_seconds",
			"Wall time of one autopilot cycle (estimate + re-solve + enact).", buckets),
		AllocationDelta: reg.Gauge("lrgp_enact_allocation_delta",
			"Largest relative change of the latest re-solved allocation vs the last enacted one."),
		Oscillation: reg.Gauge("lrgp_enact_oscillation",
			"Fraction of recent per-class admission changes that reversed direction (0 converged, 1 flapping)."),
		DemandConsumers: reg.Gauge("lrgp_enact_demand_consumers",
			"Attached-consumer demand observed by the most recent autopilot cycle."),
	}
	for mode, name := range enactModeNames {
		m.RouteBuilds[mode] = reg.Counter("lrgp_enact_route_builds_total",
			"Broker enacts by route-snapshot build outcome.", Label{Key: "mode", Value: name})
	}
	return m
}

// ObserveApply records one control-plane enact: its wall time
// (nanoseconds), route-build outcome (an EnactRoute* constant), and how
// many classes, flows and flow rates it touched. Lock-free, 0 allocs.
func (m *EnactMetrics) ObserveApply(nanos int64, mode, classes, flows, rates int) {
	if m == nil {
		return
	}
	m.ApplySeconds.ObserveSeconds(nanos)
	if mode >= 0 && mode < len(m.RouteBuilds) {
		m.RouteBuilds[mode].Inc()
	}
	m.ClassesTouched.Add(uint64(classes))
	m.FlowsTouched.Add(uint64(flows))
	m.RatesChanged.Add(uint64(rates))
}

// ObserveCycle records one autopilot cycle: whether it enacted, its wall
// time (nanoseconds), the allocation delta it measured against the enact
// threshold, the current oscillation score, and the total attached
// demand it observed. Lock-free, 0 allocs.
func (m *EnactMetrics) ObserveCycle(enacted bool, nanos int64, delta, oscillation float64, demand int) {
	if m == nil {
		return
	}
	if enacted {
		m.CyclesEnacted.Inc()
	} else {
		m.CyclesSkipped.Inc()
	}
	m.CycleSeconds.ObserveSeconds(nanos)
	m.AllocationDelta.Set(delta)
	m.Oscillation.Set(oscillation)
	m.DemandConsumers.Set(float64(demand))
}
