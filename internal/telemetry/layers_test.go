package telemetry_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestDistMetricsObserve: a cluster handed a registry registers every
// lrgp_dist_* family on it, its counters grow with the rounds it runs, and
// the net gauges read the transport whenever the registry is scraped, in
// the middle of a run as at its end; a scraper runs beside the rounds
// throughout.
func TestDistMetricsObserve(t *testing.T) {
	reg := telemetry.NewRegistry()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := dist.New(workload.Base(), dist.Config{Core: core.Config{Adaptive: true}, Telemetry: reg}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
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
		if !strings.Contains(out.String(), "# TYPE "+family+" ") {
			t.Errorf("rendered output missing family %s", family)
		}
	}

	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.WritePrometheus(io.Discard)
			}
		}
	}()
	defer func() { close(stop); <-scraped }()

	var frames float64
	for run := 1; run <= 2; run++ {
		if _, err := cl.Run(5, time.Minute); err != nil {
			t.Fatal(err)
		}
		m := exposition(t, reg)
		if got := m["lrgp_dist_rounds_finalized_total"]; got != float64(5*run) {
			t.Errorf("after run %d: %g rounds finalized, want %d", run, got, 5*run)
		}
		if m["lrgp_dist_gateway_flushes_total"] == 0 || m["lrgp_dist_gateway_flush_occupancy_count"] == 0 {
			t.Errorf("after run %d: no gateway flush observed", run)
		}
		if m["lrgp_dist_net_frames"] <= frames || m["lrgp_dist_net_bytes"] == 0 {
			t.Errorf("after run %d: net gauges read %g frames (%g before) and %g bytes; want them live",
				run, m["lrgp_dist_net_frames"], frames, m["lrgp_dist_net_bytes"])
		}
		frames = m["lrgp_dist_net_frames"]
	}
}

// TestNilHandlesAreSafe: a layer handed no registry builds no instruments
// and runs as before. The engine Steps without reading the clock or
// allocating, and a cluster runs its rounds.
func TestNilHandlesAreSafe(t *testing.T) {
	e, err := core.NewEngine(workload.Base(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if r := e.Step(); r.StageNanos != [3]int64{} {
		t.Errorf("StageNanos = %v without a registry, want zeros", r.StageNanos)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs > 0 {
		t.Errorf("Step without a registry allocates %v per run, want 0", allocs)
	}
	if res := e.Solve(250); !res.Converged {
		t.Errorf("Solve without a registry did not converge: %+v", res.Stop)
	}

	net := transport.NewMemory()
	defer net.Close()
	cl, err := dist.New(workload.Base(), dist.Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if stats, err := cl.Run(5, time.Minute); err != nil || len(stats) != 5 {
		t.Errorf("a cluster without a registry ran %d of 5 rounds: %v", len(stats), err)
	}
}

// TestEngineMetricsObserveStep: an engine handed a registry renders each
// Step and Solve on it.
func TestEngineMetricsObserveStep(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := core.NewEngine(workload.Base(), core.Config{Adaptive: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := exposition(t, reg)["lrgp_engine_converged_iteration"]; got != -1 {
		t.Errorf("converged iteration starts at %g, want -1", got)
	}

	e.Step()
	r := e.Step()
	m := exposition(t, reg)
	for key, want := range map[string]float64{
		"lrgp_engine_steps_total":                            2,
		"lrgp_engine_utility":                                r.Utility,
		"lrgp_engine_max_node_overload":                      r.MaxNodeOverload,
		"lrgp_engine_max_link_overload":                      r.MaxLinkOverload,
		"lrgp_engine_dirty_flows":                            float64(r.DirtyFlows),
		"lrgp_engine_skipped_constraints":                    float64(r.SkippedNodes + r.SkippedLinks),
		`lrgp_engine_stage_seconds_count{stage="rate"}`:      2,
		`lrgp_engine_stage_seconds_count{stage="admission"}`: 2,
		`lrgp_engine_stage_seconds_count{stage="price"}`:     2,
	} {
		if m[key] != want {
			t.Errorf("after two Steps: %s = %g, want %g", key, m[key], want)
		}
	}
	if m[`lrgp_engine_price_updates_total{resource="node"}`] == 0 {
		t.Error("two Steps updated no node price")
	}

	res := e.Solve(250)
	m = exposition(t, reg)
	for key, want := range map[string]float64{
		"lrgp_engine_steps_total":                                   float64(2 + res.Iterations),
		"lrgp_engine_converged":                                     1,
		"lrgp_engine_converged_iteration":                           float64(res.ConvergedAt),
		`lrgp_solve_stop_total{reason="` + res.Stop.String() + `"}`: 1,
	} {
		if m[key] != want {
			t.Errorf("after Solve: %s = %g, want %g", key, m[key], want)
		}
	}
}
