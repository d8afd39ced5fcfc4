package telemetry

import (
	"strings"
	"testing"
)

func TestDistMetricsObserve(t *testing.T) {
	reg := NewRegistry()
	dm := NewDistMetrics(reg)

	dm.ObserveFinalize(2, 1, 1500)
	dm.ObserveFinalize(1, 0, 2500)
	dm.ObserveChirp(true)
	dm.ObserveChirp(false)
	dm.ObserveChirp(false)
	dm.ObserveBackoff(true)
	dm.ObserveRepair(false)
	dm.ObserveFlush(12)
	dm.ObserveFlushFrame(5)
	dm.ObserveFlushFrame(7)
	dm.ObserveStall()
	dm.ObserveNet(30, 1800, 3)

	if dm.RoundsFinalized.Value() != 2 {
		t.Errorf("rounds finalized = %d, want 2", dm.RoundsFinalized.Value())
	}
	if dm.StalenessLag.Value() != 1 || dm.FinalizeLag.Value() != 0 {
		t.Errorf("lag gauges = (%g, %g), want (1, 0) (last write wins)",
			dm.StalenessLag.Value(), dm.FinalizeLag.Value())
	}
	if count, _ := dm.AssemblySeconds.CountSum(); count != 2 {
		t.Errorf("assembly observations = %d, want 2", count)
	}
	if dm.FlowChirps.Value() != 1 || dm.NodeChirps.Value() != 2 {
		t.Errorf("chirps = (%d, %d), want (1, 2)", dm.FlowChirps.Value(), dm.NodeChirps.Value())
	}
	if dm.FlowBackoffs.Value() != 1 || dm.NodeRepairs.Value() != 1 {
		t.Error("backoff/repair counters wrong")
	}
	if dm.GatewayFlushes.Value() != 1 || dm.GatewayQueueDepth.Value() != 12 {
		t.Error("gateway flush counters wrong")
	}
	if count, sum := dm.FlushOccupancy.CountSum(); count != 2 || sum != 12 {
		t.Errorf("occupancy histogram = (%d, %g), want (2, 12)", count, sum)
	}
	if dm.Stalls.Value() != 1 {
		t.Errorf("stalls = %d, want 1", dm.Stalls.Value())
	}
	if dm.NetFrames.Value() != 30 || dm.NetBytes.Value() != 1800 || dm.NetDropped.Value() != 3 {
		t.Error("net gauges wrong")
	}

	var out strings.Builder
	reg.WritePrometheus(&out)
	for _, family := range []string{
		"lrgp_dist_rounds_finalized_total",
		"lrgp_dist_staleness_lag",
		"lrgp_dist_collector_finalize_lag",
		"lrgp_dist_round_assembly_seconds",
		"lrgp_dist_resend_chirps_total",
		"lrgp_dist_resend_backoffs_total",
		"lrgp_dist_repairs_total",
		"lrgp_dist_gateway_flushes_total",
		"lrgp_dist_gateway_queue_depth",
		"lrgp_dist_gateway_flush_occupancy",
		"lrgp_dist_stalls_total",
		"lrgp_dist_net_frames",
		"lrgp_dist_net_bytes",
		"lrgp_dist_net_dropped",
	} {
		if !strings.Contains(out.String(), family) {
			t.Errorf("rendered output missing family %s", family)
		}
	}
}

func TestDistMetricsNilSafeAndZeroAlloc(t *testing.T) {
	var dm *DistMetrics
	dm.ObserveFinalize(1, 1, 100)
	dm.ObserveChirp(true)
	dm.ObserveBackoff(false)
	dm.ObserveRepair(true)
	dm.ObserveFlush(3)
	dm.ObserveFlushFrame(3)
	dm.ObserveStall()
	dm.ObserveNet(1, 2, 3)

	live := NewDistMetrics(NewRegistry())
	for _, m := range []*DistMetrics{nil, live} {
		m := m
		if allocs := testing.AllocsPerRun(100, func() {
			m.ObserveFinalize(2, 1, 1500)
			m.ObserveChirp(true)
			m.ObserveBackoff(false)
			m.ObserveRepair(false)
			m.ObserveFlush(8)
			m.ObserveFlushFrame(4)
		}); allocs > 0 {
			t.Errorf("observe path allocates %v per run, want 0 (handle=%v)", allocs, m != nil)
		}
	}
}

// TestDefaultBuckets: the constructors keep the historical layouts
// byte-for-byte, and the µs-scale layout resolves sub-µs latencies that
// DurationBuckets flattens into its first bucket.
func TestDefaultBuckets(t *testing.T) {
	var def strings.Builder
	reg := NewRegistry()
	NewEngineMetrics(reg)
	reg.Histogram("lrgp_broker_fanout", "Delivery queue depth per accepted publish.", FanoutBuckets())
	reg.WritePrometheus(&def)
	if !strings.Contains(def.String(), `le="1e-06"`) {
		t.Error("default engine stage buckets lost the 1µs bound")
	}
	if !strings.Contains(def.String(), `lrgp_broker_fanout_bucket{le="1000"}`) {
		t.Error("default broker fanout buckets lost the 1000 bound")
	}
	if MicroDurationBuckets()[0] >= DurationBuckets()[0] {
		t.Error("MicroDurationBuckets does not extend below DurationBuckets")
	}
}
