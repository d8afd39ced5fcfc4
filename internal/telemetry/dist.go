package telemetry

// DistMetrics instruments the distributed runtime (package dist): round
// progress and staleness at the collector, resend-chirp repair traffic at
// the agents, gateway batching occupancy, stall-detector trips, and the
// transport's traffic counters. Construct with NewDistMetrics and pass
// via dist.Config.Telemetry; a nil handle disables everything. All
// observe methods are called from agent hot loops — they must stay
// atomic-only, no locks, no allocation (the registry's instruments
// already are).
type DistMetrics struct {
	// RoundsFinalized counts rounds the collector fully assembled.
	RoundsFinalized *Counter
	// StalenessLag is the frontier round (freshest round seen in any
	// message) minus the slowest active agent's round, sampled at each
	// finalize — the cluster's effective staleness.
	StalenessLag *Gauge
	// FinalizeLag is the frontier round minus the most recently finalized
	// round: how far assembly trails the fastest agents.
	FinalizeLag *Gauge
	// AssemblySeconds is the time from a round's first absorbed input to
	// its finalize.
	AssemblySeconds *Histogram
	// FlowChirps/NodeChirps count stall re-announces (resend chirps);
	// FlowBackoffs/NodeBackoffs count chirp-interval escalations (a chirp
	// that still produced no progress); FlowRepairs/NodeRepairs count
	// stalls that resumed after at least one chirp — the chirp plausibly
	// repaired a lost frame.
	FlowChirps   *Counter
	NodeChirps   *Counter
	FlowBackoffs *Counter
	NodeBackoffs *Counter
	FlowRepairs  *Counter
	NodeRepairs  *Counter
	// GatewayFlushes counts flush epochs that carried traffic;
	// GatewayQueueDepth is the staged message count at the most recent
	// flush; FlushOccupancy is messages per flushed batch frame.
	GatewayFlushes    *Counter
	GatewayQueueDepth *Gauge
	FlushOccupancy    *Histogram
	// Stalls counts stall-detector trips (no collector progress within
	// the deadline while rounds were pending).
	Stalls *Counter
	// Traffic mirrored from the transport's Meter after a run: frames and
	// the bytes they carried, plus what was lost to fault injection or a
	// full inbox.
	NetFrames  *Gauge
	NetBytes   *Gauge
	NetDropped *Gauge
}

// NewDistMetrics registers the dist metric family in reg and returns the
// handle, with the µs-scale assembly (MicroDurationBuckets) and occupancy
// (OccupancyBuckets) layouts.
func NewDistMetrics(reg *Registry) *DistMetrics {
	flow := Label{Key: "agent", Value: "flow"}
	node := Label{Key: "agent", Value: "node"}
	return &DistMetrics{
		RoundsFinalized: reg.Counter("lrgp_dist_rounds_finalized_total",
			"Rounds fully assembled and finalized by the collector."),
		StalenessLag: reg.Gauge("lrgp_dist_staleness_lag",
			"Frontier round minus the slowest active agent's round at the last finalize."),
		FinalizeLag: reg.Gauge("lrgp_dist_collector_finalize_lag",
			"Frontier round minus the most recently finalized round."),
		AssemblySeconds: reg.Histogram("lrgp_dist_round_assembly_seconds",
			"Time from a round's first absorbed input to its finalize.", MicroDurationBuckets()),
		FlowChirps: reg.Counter("lrgp_dist_resend_chirps_total",
			"Stall re-announces by agent kind.", flow),
		NodeChirps: reg.Counter("lrgp_dist_resend_chirps_total",
			"Stall re-announces by agent kind.", node),
		FlowBackoffs: reg.Counter("lrgp_dist_resend_backoffs_total",
			"Chirp-interval escalations by agent kind.", flow),
		NodeBackoffs: reg.Counter("lrgp_dist_resend_backoffs_total",
			"Chirp-interval escalations by agent kind.", node),
		FlowRepairs: reg.Counter("lrgp_dist_repairs_total",
			"Stalls that resumed after at least one chirp, by agent kind.", flow),
		NodeRepairs: reg.Counter("lrgp_dist_repairs_total",
			"Stalls that resumed after at least one chirp, by agent kind.", node),
		GatewayFlushes: reg.Counter("lrgp_dist_gateway_flushes_total",
			"Gateway flush epochs that carried staged traffic."),
		GatewayQueueDepth: reg.Gauge("lrgp_dist_gateway_queue_depth",
			"Staged messages at the most recent gateway flush."),
		FlushOccupancy: reg.Histogram("lrgp_dist_gateway_flush_occupancy",
			"Messages per flushed gateway batch frame.", OccupancyBuckets()),
		Stalls: reg.Counter("lrgp_dist_stalls_total",
			"Stall-detector trips (no collector progress within the deadline)."),
		NetFrames: reg.Gauge("lrgp_dist_net_frames",
			"Transport frames delivered."),
		NetBytes: reg.Gauge("lrgp_dist_net_bytes",
			"Bytes the delivered transport frames carried."),
		NetDropped: reg.Gauge("lrgp_dist_net_dropped",
			"Messages lost to fault injection, partitions or a full inbox."),
	}
}

// ObserveFinalize records one finalized round: the effective staleness
// lag, the collector's finalize lag behind the frontier, and the round's
// assembly wall time (first input to finalize, nanoseconds).
func (m *DistMetrics) ObserveFinalize(stalenessLag, finalizeLag int, assemblyNanos int64) {
	if m == nil {
		return
	}
	m.RoundsFinalized.Inc()
	m.StalenessLag.Set(float64(stalenessLag))
	m.FinalizeLag.Set(float64(finalizeLag))
	m.AssemblySeconds.ObserveSeconds(assemblyNanos)
}

// ObserveChirp records one stall re-announce.
func (m *DistMetrics) ObserveChirp(flow bool) {
	if m == nil {
		return
	}
	if flow {
		m.FlowChirps.Inc()
	} else {
		m.NodeChirps.Inc()
	}
}

// ObserveBackoff records one chirp-interval escalation.
func (m *DistMetrics) ObserveBackoff(flow bool) {
	if m == nil {
		return
	}
	if flow {
		m.FlowBackoffs.Inc()
	} else {
		m.NodeBackoffs.Inc()
	}
}

// ObserveRepair records a stall that resumed after at least one chirp.
func (m *DistMetrics) ObserveRepair(flow bool) {
	if m == nil {
		return
	}
	if flow {
		m.FlowRepairs.Inc()
	} else {
		m.NodeRepairs.Inc()
	}
}

// ObserveFlush records one gateway flush epoch of `staged` total messages.
func (m *DistMetrics) ObserveFlush(staged int) {
	if m == nil {
		return
	}
	m.GatewayFlushes.Inc()
	m.GatewayQueueDepth.Set(float64(staged))
}

// ObserveFlushFrame records one flushed batch frame of `msgs` messages.
func (m *DistMetrics) ObserveFlushFrame(msgs int) {
	if m == nil {
		return
	}
	m.FlushOccupancy.Observe(float64(msgs))
}

// ObserveStall records one stall-detector trip.
func (m *DistMetrics) ObserveStall() {
	if m == nil {
		return
	}
	m.Stalls.Inc()
}

// ObserveNet mirrors a transport Meter snapshot into the net gauges. The
// arguments are plain counts so the telemetry package stays free of a
// transport dependency.
func (m *DistMetrics) ObserveNet(frames, bytes, dropped uint64) {
	if m == nil {
		return
	}
	m.NetFrames.Set(float64(frames))
	m.NetBytes.Set(float64(bytes))
	m.NetDropped.Set(float64(dropped))
}
