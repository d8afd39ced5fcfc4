package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestEnactMetricsObserve(t *testing.T) {
	reg := NewRegistry()
	m := NewEnactMetrics(reg)

	m.ObserveApply(1500, EnactRouteIncremental, 2, 1, 3)
	m.ObserveApply(500, EnactRouteNoop, 0, 0, 0)
	m.ObserveApply(2500, EnactRouteIncremental, 8, 6, 6)
	m.ObserveCycle(true, 10_000, 0.25, 0.5, 120)
	m.ObserveCycle(false, 8_000, 0.001, 0.5, 120)

	if got := m.RouteBuilds[EnactRouteNoop].Value(); got != 1 {
		t.Errorf("noop builds = %d, want 1", got)
	}
	if got := m.RouteBuilds[EnactRouteIncremental].Value(); got != 2 {
		t.Errorf("incremental builds = %d, want 2", got)
	}
	if got := m.ClassesTouched.Value(); got != 10 {
		t.Errorf("classes touched = %d, want 10", got)
	}
	if got := m.FlowsTouched.Value(); got != 7 {
		t.Errorf("flows touched = %d, want 7", got)
	}
	if got := m.RatesChanged.Value(); got != 9 {
		t.Errorf("rates changed = %d, want 9", got)
	}
	if got := m.CyclesEnacted.Value(); got != 1 {
		t.Errorf("enacted cycles = %d, want 1", got)
	}
	if got := m.CyclesSkipped.Value(); got != 1 {
		t.Errorf("skipped cycles = %d, want 1", got)
	}
	if got := m.AllocationDelta.Value(); got != 0.001 {
		t.Errorf("allocation delta = %g, want 0.001", got)
	}
	if got := m.DemandConsumers.Value(); got != 120 {
		t.Errorf("demand = %g, want 120", got)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lrgp_enact_apply_seconds_bucket{le=`,
		`lrgp_enact_route_builds_total{mode="noop"} 1`,
		`lrgp_enact_route_builds_total{mode="incremental"} 2`,
		`lrgp_enact_classes_touched_total 10`,
		`lrgp_enact_flows_touched_total 7`,
		`lrgp_enact_rates_changed_total 9`,
		`lrgp_enact_cycles_total{result="enacted"} 1`,
		`lrgp_enact_cycles_total{result="skipped"} 1`,
		`lrgp_enact_cycle_seconds_bucket{le=`,
		`lrgp_enact_allocation_delta 0.001`,
		`lrgp_enact_oscillation 0.5`,
		`lrgp_enact_demand_consumers 120`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestEnactMetricsNilSafe pins the nil-handle contract shared by every
// instrumentation handle in this package.
func TestEnactMetricsNilSafe(t *testing.T) {
	var m *EnactMetrics
	m.ObserveApply(1, EnactRouteIncremental, 1, 1, 1)
	m.ObserveCycle(true, 1, 1, 1, 1)
}

// TestEnactMetricsZeroAlloc: the observe methods sit on the broker's
// control path, which the no-op-enact acceptance bar caps at 2 allocs —
// instrumentation must contribute none of them.
func TestEnactMetricsZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	m := NewEnactMetrics(reg)
	allocs := testing.AllocsPerRun(1000, func() {
		m.ObserveApply(100, EnactRouteIncremental, 1, 1, 1)
		m.ObserveCycle(true, 100, 0.1, 0, 10)
	})
	if allocs != 0 {
		t.Errorf("observe allocs/op = %g, want 0", allocs)
	}
}
