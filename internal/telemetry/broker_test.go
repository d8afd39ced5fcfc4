package telemetry_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// exposition renders reg as Prometheus text and reads back every sample
// as name{labels} → value.
func exposition(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

// TestBrokerMetricsObserve: the lrgp_broker_* family a broker registers
// with WithTelemetry renders, as Prometheus text, what each publish,
// throttle, thinned class, attach, detach and enacted allocation did.
func TestBrokerMetricsObserve(t *testing.T) {
	p := workload.Base()
	reg := telemetry.NewRegistry()
	now := time.Unix(0, 0)
	b, err := broker.New(p, broker.WithClock(func() time.Time { return now }), broker.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	pass, err := b.AttachConsumer(0, broker.MatchAll{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachConsumer(0, broker.AttrFilter{Attr: "price", Op: broker.CmpGT, Value: 1000}, nil); err != nil {
		t.Fatal(err)
	}
	alloc := model.NewAllocation(p)
	alloc.Rates[0] = 10
	alloc.Consumers[0] = 2
	if err := b.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}

	// One publish reaches both consumers: one delivery, one filter drop,
	// so a fanout of one.
	now = now.Add(time.Second)
	if err := b.Publish(0, map[string]float64{"price": 80}, "tick"); err != nil {
		t.Fatal(err)
	}
	m := exposition(t, reg)
	for key, want := range map[string]float64{
		"lrgp_broker_published_total":       1,
		"lrgp_broker_delivered_total":       1,
		"lrgp_broker_filtered_total":        1,
		"lrgp_broker_throttled_total":       0,
		"lrgp_broker_thinned_total":         0,
		"lrgp_broker_consumers_attached":    2,
		"lrgp_broker_consumers_admitted":    2,
		"lrgp_broker_allocations_total":     1,
		"lrgp_broker_fanout_count":          1,
		`lrgp_broker_fanout_bucket{le="0"}`: 0,
		`lrgp_broker_fanout_bucket{le="1"}`: 1,
		"lrgp_broker_fanout_sum":            1,
		"lrgp_broker_work_units_total":      float64(b.WorkUnits()),
	} {
		if got := m[key]; got != want {
			t.Errorf("after one publish: %s = %g, want %g", key, got, want)
		}
	}

	// Flood flow 0 until its source limiter throttles.
	for i := 0; b.Publish(0, nil, "flood") == nil; i++ {
		if i > 1000 {
			t.Fatal("the rate limiter never throttled")
		}
	}
	// Cap class 0 to ~0: its bucket holds one burst token, so the first
	// capped publish passes and the second thins the class stream.
	if err := b.SetClassRateCap(0, 1e-9); err != nil {
		t.Fatal(err)
	}
	now = now.Add(10 * time.Second)
	for range 2 {
		if err := b.Publish(0, nil, "thin"); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DetachConsumer(pass); err != nil {
		t.Fatal(err)
	}

	fs, err := b.FlowStats(0)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := b.ClassStats(0)
	if err != nil {
		t.Fatal(err)
	}
	m = exposition(t, reg)
	for key, want := range map[string]float64{
		"lrgp_broker_published_total":    float64(fs.Published),
		"lrgp_broker_throttled_total":    1,
		"lrgp_broker_delivered_total":    float64(cs.Delivered),
		"lrgp_broker_filtered_total":     float64(cs.Filtered),
		"lrgp_broker_thinned_total":      1,
		"lrgp_broker_consumers_attached": 1,
		"lrgp_broker_consumers_admitted": 1,
		"lrgp_broker_allocations_total":  1,
		"lrgp_broker_fanout_count":       float64(fs.Published),
		"lrgp_broker_work_units_total":   float64(b.WorkUnits()),
	} {
		if got := m[key]; got != want {
			t.Errorf("after flood, thinning and detach: %s = %g, want %g", key, got, want)
		}
	}
	if fs.Published < 3 {
		t.Errorf("published = %d, want the tick, a flood and the capped publishes", fs.Published)
	}
}

// TestEnactMetricsObserve: the lrgp_enact_* family a broker and its
// autopilot register renders each enact's route-build outcome and
// touched classes, flows and rates, and each autopilot cycle's outcome,
// delta, oscillation and demand.
func TestEnactMetricsObserve(t *testing.T) {
	p := workload.Base()
	reg := telemetry.NewRegistry()
	now := time.Unix(0, 0)
	b, err := broker.New(p, broker.WithClock(func() time.Time { return now }), broker.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	a, err := broker.NewAutopilot(b, broker.AutopilotConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for j := range p.Classes {
		for range 3 {
			if _, err := b.AttachConsumer(model.ClassID(j), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// An allocation that admits class 0 rebuilds flow 0's routes; the same
	// allocation again is a no-op.
	alloc := model.NewAllocation(p)
	alloc.Rates[0] = 10
	alloc.Consumers[0] = 2
	for range 2 {
		if err := b.ApplyAllocation(alloc); err != nil {
			t.Fatal(err)
		}
	}
	m := exposition(t, reg)
	for key, want := range map[string]float64{
		`lrgp_enact_route_builds_total{mode="incremental"}`: 1,
		`lrgp_enact_route_builds_total{mode="noop"}`:        1,
		"lrgp_enact_classes_touched_total":                  1,
		"lrgp_enact_flows_touched_total":                    1,
		"lrgp_enact_apply_seconds_count":                    2,
		"lrgp_enact_cycle_seconds_count":                    0,
		`lrgp_enact_cycles_total{result="enacted"}`:         0,
		`lrgp_enact_cycles_total{result="skipped"}`:         0,
	} {
		if got := m[key]; got != want {
			t.Errorf("after two applies: %s = %g, want %g", key, got, want)
		}
	}

	// The first cycle moves the allocation to the solved one and enacts;
	// a second on the stopped clock sees the same demand and skips.
	var outcomes []bool
	for range 2 {
		_, enacted, err := a.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, enacted)
	}
	if !outcomes[0] || outcomes[1] {
		t.Fatalf("cycle outcomes = %v, want [true false]", outcomes)
	}
	es, as := b.EnactStats(), a.Stats()
	m = exposition(t, reg)
	for key, want := range map[string]float64{
		`lrgp_enact_route_builds_total{mode="incremental"}`: float64(es.RouteIncrementals),
		`lrgp_enact_route_builds_total{mode="noop"}`:        float64(es.RouteNoops),
		"lrgp_enact_classes_touched_total":                  float64(es.ClassesTouched),
		"lrgp_enact_flows_touched_total":                    float64(es.FlowsTouched),
		"lrgp_enact_rates_changed_total":                    float64(es.RatesChanged),
		"lrgp_enact_apply_seconds_count":                    float64(es.RouteNoops + es.RouteIncrementals),
		`lrgp_enact_cycles_total{result="enacted"}`:         1,
		`lrgp_enact_cycles_total{result="skipped"}`:         1,
		"lrgp_enact_cycle_seconds_count":                    2,
		"lrgp_enact_allocation_delta":                       as.LastDelta,
		"lrgp_enact_oscillation":                            as.Oscillation,
		"lrgp_enact_demand_consumers":                       float64(3 * len(p.Classes)),
	} {
		if got := m[key]; got != want {
			t.Errorf("after an enacted and a skipped cycle: %s = %g, want %g", key, got, want)
		}
	}
	if es.RouteIncrementals < 2 || es.RatesChanged == 0 {
		t.Errorf("the enacted cycle rebuilt no routes or rates: %+v", es)
	}
	if as.LastDelta >= 0.01 {
		t.Errorf("the skipped cycle's delta %g reaches the enact threshold", as.LastDelta)
	}
}
