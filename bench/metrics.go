package main

// metricDef names one metric. BENCHMARK.json at the root of the repository
// lists the same names, units, directions and bounds; a test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and the workload it should move it on.
	Moves string
	Doc   string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, so each is defined per workload: "work" and "latency"
// mean the workload's own headline operation (see the table in README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "problem generation through first enacted allocation; median of the run's set-ups"},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		Doc: "live heap after set-up and a forced GC"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "deliveries (steady_fanout), control cycles (demand_churn), failure events (link_failure), rounds (dist_rounds) per second; fast decile of the run's batches"},
	{Name: "latency_ms_p10", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "fast-decile service time of an accepted Publish (steady_fanout), Autopilot.Cycle (demand_churn), fail event from repair call to enacted allocation (link_failure), lock-step round (dist_rounds)"},
	{Name: "utility_ratio", Unit: "ratio", Better: "higher", Bound: 0.01,
		Doc: "final enacted utility over a fresh cold solve of the final problem"},
}

// perLayer lists the metrics of single layers, prefixed with the module
// they belong to, and after them the end-to-end metrics that exist on one
// workload only (the contract wants every end-to-end metric from every
// workload, so these cannot sit in endToEnd). A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{Name: "broker.publish_ns_per_delivery", Unit: "ns", Better: "lower", Moves: "throughput_per_s, latency_ms_p10 on steady_fanout"},
	{Name: "broker.publish_allocs_per_op", Unit: "count", Better: "lower", Moves: "throughput_per_s on steady_fanout"},
	{Name: "broker.fanout_per_msg", Unit: "count", Better: "higher", Moves: "latency_ms_p10 on steady_fanout (context: work per publish)"},
	{Name: "broker.throttled_share", Unit: "ratio", Better: "lower", Moves: "throughput_per_s on steady_fanout"},
	{Name: "broker.publish_late_us_p99", Unit: "us", Better: "lower", Moves: "publish_us_p99 on demand_churn"},
	{Name: "broker.gen_late_us_p99", Unit: "us", Better: "lower", Moves: "publish_us_p99 on demand_churn (the generator's own lateness)"},
	{Name: "broker.estimate_us_p50", Unit: "us", Better: "lower", Moves: "latency_ms_p10 on demand_churn"},
	{Name: "broker.enact_us_p50", Unit: "us", Better: "lower", Moves: "latency_ms_p10 on demand_churn and link_failure"},
	{Name: "broker.enact_allocs_per_op", Unit: "count", Better: "lower", Moves: "latency_ms_p10 on demand_churn"},
	{Name: "broker.enact_share", Unit: "ratio", Better: "lower", Moves: "latency_ms_p10 on demand_churn"},
	{Name: "broker.churn_op_us_p50", Unit: "us", Better: "lower", Moves: "throughput_per_s on demand_churn"},
	{Name: "core.perturb_us_p50", Unit: "us", Better: "lower", Moves: "latency_ms_p10 on demand_churn"},
	{Name: "core.solve_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p10, cycle_ms_p95 on demand_churn"},
	{Name: "core.solve_iters_p50", Unit: "count", Better: "lower", Moves: "latency_ms_p10 on demand_churn"},
	{Name: "core.step_us_p50", Unit: "us", Better: "lower", Moves: "latency_ms_p10 on demand_churn"},
	{Name: "core.solve_share", Unit: "ratio", Better: "lower", Moves: "latency_ms_p10 on demand_churn"},
	{Name: "core.allocs_per_cycle", Unit: "count", Better: "lower", Moves: "cycle_ms_p95 on demand_churn"},
	{Name: "core.reset_routing_us_p50", Unit: "us", Better: "lower", Moves: "latency_ms_p10, restore_ms_p50 on link_failure"},
	{Name: "core.resolve_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p10, restore_ms_p50 on link_failure"},
	{Name: "core.resolve_iters_p50", Unit: "count", Better: "lower", Moves: "latency_ms_p10 on link_failure"},
	{Name: "core.new_engine_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "overlay.repair_us_p50", Unit: "us", Better: "lower", Moves: "latency_ms_p10 on link_failure"},
	{Name: "overlay.restore_us_p50", Unit: "us", Better: "lower", Moves: "restore_ms_p50, throughput_per_s on link_failure"},
	{Name: "overlay.affected_flows_p50", Unit: "count", Better: "lower", Moves: "latency_ms_p10 on link_failure"},
	{Name: "overlay.rerouted_flows_p50", Unit: "count", Better: "lower", Moves: "latency_ms_p10 on link_failure"},
	{Name: "overlay.reroute_ratio", Unit: "ratio", Better: "higher", Moves: "restore_ms_p50 on link_failure (rerouted over affected: the share of re-traces that were needed)"},
	{Name: "overlay.new_router_ms", Unit: "ms", Better: "lower", Moves: "setup_s on link_failure"},
	{Name: "model.validate_index_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "dist.round_us_p50", Unit: "us", Better: "lower", Moves: "throughput_per_s on dist_rounds"},
	{Name: "dist.allocs_per_round", Unit: "count", Better: "lower", Moves: "throughput_per_s on dist_rounds"},
	{Name: "dist.alloc_kb_per_round", Unit: "KB", Better: "lower", Moves: "throughput_per_s on dist_rounds"},
	{Name: "dist.rounds_to_converge", Unit: "count", Better: "lower", Moves: "setup_s, converge_s on dist_rounds"},
	{Name: "dist.floor_ratio", Unit: "ratio", Better: "lower", Moves: "throughput_per_s on dist_rounds (round time over two transport round trips)"},
	{Name: "transport.frames_per_round", Unit: "count", Better: "lower", Moves: "throughput_per_s on dist_rounds"},
	{Name: "transport.bytes_per_round", Unit: "B", Better: "lower", Moves: "throughput_per_s on dist_rounds"},
	{Name: "transport.rtt_us_p50", Unit: "us", Better: "lower", Moves: "throughput_per_s, round_ms_p99 on dist_rounds"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower", Moves: "context for every throughput"},
	{Name: "proc.alloc_mb_per_s", Unit: "MB/s", Better: "lower", Moves: "context for every tail"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "context for every tail"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Moves: "traced over untraced throughput_per_s: how far the traced numbers sit from the untraced ones"},

	{Name: "deliveries_per_s", Unit: "1/s", Better: "higher", Doc: "steady_fanout: class deliveries over wall time"},
	{Name: "publish_us_p50", Unit: "us", Better: "lower", Doc: "steady_fanout, demand_churn: service time of accepted Publish calls"},
	{Name: "publish_us_p99", Unit: "us", Better: "lower", Doc: "steady_fanout, demand_churn: same, 99th percentile"},
	{Name: "cycle_ms_p50", Unit: "ms", Better: "lower", Doc: "demand_churn: one Autopilot.Cycle"},
	{Name: "cycle_ms_p95", Unit: "ms", Better: "lower", Doc: "demand_churn: same, 95th percentile"},
	{Name: "recovery_ms_p50", Unit: "ms", Better: "lower", Doc: "link_failure: fail events, repair call to enacted allocation"},
	{Name: "recovery_ms_p90", Unit: "ms", Better: "lower", Doc: "link_failure: same, 90th percentile"},
	{Name: "restore_ms_p50", Unit: "ms", Better: "lower", Doc: "link_failure: heal events, restore call to enacted allocation"},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Doc: "dist_rounds: completed rounds over wall time"},
	{Name: "round_ms_p99", Unit: "ms", Better: "lower", Doc: "dist_rounds: chunk time over 10, 99th percentile"},
	{Name: "converge_s", Unit: "s", Better: "lower", Doc: "dist_rounds: cold dist.New to the paper's 0.1% rule, median of the run's clusters"},
}
