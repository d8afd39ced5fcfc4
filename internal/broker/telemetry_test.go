package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// scrape is one reg.Snapshot(), read the way the tests compare it: a
// counter as uint64, a gauge as float64, a histogram as its count and
// sum. A series the registry lacks reads as zero.
type scrape map[string]any

func scrapeOf(reg *telemetry.Registry) scrape { return reg.Snapshot() }

func (s scrape) counter(key string) uint64 { v, _ := s[key].(uint64); return v }

func (s scrape) gauge(key string) float64 { v, _ := s[key].(float64); return v }

func (s scrape) histogram(key string) (uint64, float64) {
	h, _ := s[key].(map[string]any)
	count, _ := h["count"].(uint64)
	sum, _ := h["sum"].(float64)
	return count, sum
}

// TestBrokerTelemetryCounters drives every accounting path of Publish —
// accepted deliveries, filter drops, rate-limit throttles, multirate
// thinning — plus attach/detach and allocation enactment, and checks the
// exported telemetry against the broker's own stats.
func TestBrokerTelemetryCounters(t *testing.T) {
	p := workload.Base()
	reg := telemetry.NewRegistry()

	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b, err := New(p, WithClock(clock), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}

	// Two consumers in class 0 (same flow): one matching filter, one
	// rejecting filter.
	pass, err := b.AttachConsumer(0, MatchAll{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachConsumer(0, AttrFilter{Attr: "price", Op: CmpGT, Value: 1000}, nil); err != nil {
		t.Fatal(err)
	}
	m := scrapeOf(reg)
	if got := m.gauge("lrgp_broker_consumers_attached"); got != 2 {
		t.Errorf("attached gauge = %g, want 2", got)
	}
	if got := m.gauge("lrgp_broker_consumers_admitted"); got != 0 {
		t.Errorf("admitted gauge = %g before enactment, want 0", got)
	}

	// Enact an allocation admitting both, with flow 0 at 10 msg/s.
	alloc := model.Allocation{
		Rates:     make([]float64, len(p.Flows)),
		Consumers: make([]int, len(p.Classes)),
	}
	alloc.Rates[0] = 10
	alloc.Consumers[0] = 2
	if err := b.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	m = scrapeOf(reg)
	if got := m.counter("lrgp_broker_allocations_total"); got != 1 {
		t.Errorf("allocations counter = %d, want 1", got)
	}
	if got := m.gauge("lrgp_broker_consumers_admitted"); got != 2 {
		t.Errorf("admitted gauge = %g, want 2", got)
	}

	// One message inside the rate budget: delivered to the matching
	// consumer, filtered by the other.
	now = now.Add(time.Second)
	if err := b.Publish(0, map[string]float64{"price": 80}, "tick"); err != nil {
		t.Fatal(err)
	}
	m = scrapeOf(reg)
	published, delivered, filtered := m.counter("lrgp_broker_published_total"),
		m.counter("lrgp_broker_delivered_total"), m.counter("lrgp_broker_filtered_total")
	if published != 1 || delivered != 1 || filtered != 1 {
		t.Errorf("publish counters = %d/%d/%d, want 1/1/1", published, delivered, filtered)
	}
	if count, _ := m.histogram("lrgp_broker_fanout"); count != 1 {
		t.Errorf("fanout histogram count = %d, want 1", count)
	}
	if got, want := m.counter("lrgp_broker_work_units_total"), b.WorkUnits(); got != want {
		t.Errorf("work units counter = %d, broker reports %d", got, want)
	}

	// Exhaust the token budget: the next publish must be throttled.
	for i := 0; b.Publish(0, nil, "flood") == nil; i++ {
		if i > 1000 {
			t.Fatal("rate limiter never throttled")
		}
	}
	if scrapeOf(reg).counter("lrgp_broker_throttled_total") == 0 {
		t.Error("throttle counter not incremented")
	}

	// Thinning: cap class 0's delivery rate to ~0 and publish after
	// refilling the source bucket.
	if err := b.SetClassRateCap(0, 1e-9); err != nil {
		t.Fatal(err)
	}
	now = now.Add(10 * time.Second)
	// The cap's bucket starts with one burst token, so the first capped
	// publish passes and the second is thinned.
	for i := 0; i < 2; i++ {
		if err := b.Publish(0, nil, "thin"); err != nil {
			t.Fatal(err)
		}
	}
	if scrapeOf(reg).counter("lrgp_broker_thinned_total") == 0 {
		t.Error("thinned counter not incremented")
	}

	// Detach updates the gauges.
	if err := b.DetachConsumer(pass); err != nil {
		t.Fatal(err)
	}
	m = scrapeOf(reg)
	if got := m.gauge("lrgp_broker_consumers_attached"); got != 1 {
		t.Errorf("attached gauge after detach = %g, want 1", got)
	}

	// The exported counters must agree with the broker's own stats.
	fs, err := b.FlowStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.counter("lrgp_broker_published_total") != fs.Published || m.counter("lrgp_broker_throttled_total") != fs.Throttled {
		t.Errorf("telemetry %d/%d vs FlowStats %d/%d",
			m.counter("lrgp_broker_published_total"), m.counter("lrgp_broker_throttled_total"), fs.Published, fs.Throttled)
	}
}

// TestBrokerWithoutTelemetry: a nil registry must leave every path
// functional (the histograms stay nil and are never observed).
func TestBrokerWithoutTelemetry(t *testing.T) {
	b, err := New(workload.Base(), WithTelemetry(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachConsumer(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	alloc := model.Allocation{
		Rates:     make([]float64, len(b.Problem().Flows)),
		Consumers: make([]int, len(b.Problem().Classes)),
	}
	alloc.Rates[0] = 5
	alloc.Consumers[0] = 1
	if err := b.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(0, nil, "ok"); err != nil {
		t.Fatal(err)
	}
}

// TestConsumerGaugesMatchClassStats: the consumer gauges read the class
// counters when scraped; no operation keeps a total of its own for them.
// Across a seeded sequence of attaches, detaches and allocations that grow
// and shrink classes, they equal a from-scratch sum of AllClassStats after
// every operation.
func TestConsumerGaugesMatchClassStats(t *testing.T) {
	p := stressProblem(6)
	reg := telemetry.NewRegistry()
	br, err := New(p, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	alloc := model.NewAllocation(p)
	for i := range alloc.Rates {
		alloc.Rates[i] = 1e9
	}
	rng := rand.New(rand.NewSource(5))
	var (
		live  []ConsumerID
		stats []ClassStats
	)
	for step := 0; step < 2000; step++ {
		op := "attach"
		switch r := rng.Intn(4); {
		case r == 0 || len(live) == 0:
			id, err := br.AttachConsumer(model.ClassID(rng.Intn(len(p.Classes))), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case r == 1:
			op = "detach"
			k := rng.Intn(len(live))
			if err := br.DetachConsumer(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			op = "grow/shrink"
			for range 1 + rng.Intn(3) {
				alloc.Consumers[rng.Intn(len(p.Classes))] = rng.Intn(10)
			}
			if err := br.ApplyAllocation(alloc); err != nil {
				t.Fatal(err)
			}
		}
		stats = br.AllClassStats(stats)
		attached, admitted := 0, 0
		for _, s := range stats {
			attached += s.Attached
			admitted += s.Admitted
		}
		m := scrapeOf(reg)
		if gotAttached, gotAdmitted := m.gauge("lrgp_broker_consumers_attached"), m.gauge("lrgp_broker_consumers_admitted"); gotAttached != float64(attached) || gotAdmitted != float64(admitted) {
			t.Fatalf("step %d (%s): gauges read %g attached, %g admitted; the classes sum to %d, %d",
				step, op, gotAttached, gotAdmitted, attached, admitted)
		}
	}
}

// pinnedExposition is what reg.WritePrometheus printed, values cut off,
// for a registry holding a broker's and its autopilot's metrics when each
// counter and gauge was an atomic the broker fed as it went: the families,
// their help text, types and label sets, in the order they were then
// registered. Reading them from the stats must not change what a scraper
// sees; only the order moved (the broker registers
// lrgp_enact_route_builds_total before the autopilot registers its cycle
// family), so TestTelemetryExposition compares families, not their order.
const pinnedExposition = `# HELP lrgp_broker_published_total Messages accepted by the per-flow source rate limiter.
# TYPE lrgp_broker_published_total counter
lrgp_broker_published_total
# HELP lrgp_broker_throttled_total Messages rejected by the per-flow source rate limiter.
# TYPE lrgp_broker_throttled_total counter
lrgp_broker_throttled_total
# HELP lrgp_broker_delivered_total Per-consumer message deliveries.
# TYPE lrgp_broker_delivered_total counter
lrgp_broker_delivered_total
# HELP lrgp_broker_filtered_total Messages dropped by consumer filters.
# TYPE lrgp_broker_filtered_total counter
lrgp_broker_filtered_total
# HELP lrgp_broker_thinned_total Class streams subsampled by a multirate delivery-rate cap.
# TYPE lrgp_broker_thinned_total counter
lrgp_broker_thinned_total
# HELP lrgp_broker_fanout Delivery queue depth per accepted publish.
# TYPE lrgp_broker_fanout histogram
lrgp_broker_fanout_bucket{le="0"}
lrgp_broker_fanout_bucket{le="1"}
lrgp_broker_fanout_bucket{le="2"}
lrgp_broker_fanout_bucket{le="5"}
lrgp_broker_fanout_bucket{le="10"}
lrgp_broker_fanout_bucket{le="20"}
lrgp_broker_fanout_bucket{le="50"}
lrgp_broker_fanout_bucket{le="100"}
lrgp_broker_fanout_bucket{le="200"}
lrgp_broker_fanout_bucket{le="500"}
lrgp_broker_fanout_bucket{le="1000"}
lrgp_broker_fanout_bucket{le="+Inf"}
lrgp_broker_fanout_sum
lrgp_broker_fanout_count
# HELP lrgp_broker_consumers_attached Consumers attached across all classes.
# TYPE lrgp_broker_consumers_attached gauge
lrgp_broker_consumers_attached
# HELP lrgp_broker_consumers_admitted Consumers currently admitted across all classes.
# TYPE lrgp_broker_consumers_admitted gauge
lrgp_broker_consumers_admitted
# HELP lrgp_broker_allocations_total Optimizer allocations enacted via ApplyAllocation.
# TYPE lrgp_broker_allocations_total counter
lrgp_broker_allocations_total
# HELP lrgp_broker_work_units_total Abstract broker work units (routing, transforms, filters, deliveries).
# TYPE lrgp_broker_work_units_total counter
lrgp_broker_work_units_total
# HELP lrgp_enact_apply_seconds Wall time of one broker enact (diff + snapshot publication).
# TYPE lrgp_enact_apply_seconds histogram
lrgp_enact_apply_seconds_bucket{le="1e-06"}
lrgp_enact_apply_seconds_bucket{le="5e-06"}
lrgp_enact_apply_seconds_bucket{le="1e-05"}
lrgp_enact_apply_seconds_bucket{le="5e-05"}
lrgp_enact_apply_seconds_bucket{le="0.0001"}
lrgp_enact_apply_seconds_bucket{le="0.0005"}
lrgp_enact_apply_seconds_bucket{le="0.001"}
lrgp_enact_apply_seconds_bucket{le="0.005"}
lrgp_enact_apply_seconds_bucket{le="0.01"}
lrgp_enact_apply_seconds_bucket{le="0.05"}
lrgp_enact_apply_seconds_bucket{le="0.1"}
lrgp_enact_apply_seconds_bucket{le="0.5"}
lrgp_enact_apply_seconds_bucket{le="1"}
lrgp_enact_apply_seconds_bucket{le="5"}
lrgp_enact_apply_seconds_bucket{le="+Inf"}
lrgp_enact_apply_seconds_sum
lrgp_enact_apply_seconds_count
# HELP lrgp_enact_classes_touched_total Classes whose admitted membership enacts changed.
# TYPE lrgp_enact_classes_touched_total counter
lrgp_enact_classes_touched_total
# HELP lrgp_enact_flows_touched_total Flows whose route slice enacts rebuilt.
# TYPE lrgp_enact_flows_touched_total counter
lrgp_enact_flows_touched_total
# HELP lrgp_enact_rates_changed_total Per-flow token-bucket re-ratings performed by enacts.
# TYPE lrgp_enact_rates_changed_total counter
lrgp_enact_rates_changed_total
# HELP lrgp_enact_cycles_total Autopilot re-optimization cycles by outcome.
# TYPE lrgp_enact_cycles_total counter
lrgp_enact_cycles_total{result="enacted"}
lrgp_enact_cycles_total{result="skipped"}
# HELP lrgp_enact_cycle_seconds Wall time of one autopilot cycle (estimate + re-solve + enact).
# TYPE lrgp_enact_cycle_seconds histogram
lrgp_enact_cycle_seconds_bucket{le="1e-06"}
lrgp_enact_cycle_seconds_bucket{le="5e-06"}
lrgp_enact_cycle_seconds_bucket{le="1e-05"}
lrgp_enact_cycle_seconds_bucket{le="5e-05"}
lrgp_enact_cycle_seconds_bucket{le="0.0001"}
lrgp_enact_cycle_seconds_bucket{le="0.0005"}
lrgp_enact_cycle_seconds_bucket{le="0.001"}
lrgp_enact_cycle_seconds_bucket{le="0.005"}
lrgp_enact_cycle_seconds_bucket{le="0.01"}
lrgp_enact_cycle_seconds_bucket{le="0.05"}
lrgp_enact_cycle_seconds_bucket{le="0.1"}
lrgp_enact_cycle_seconds_bucket{le="0.5"}
lrgp_enact_cycle_seconds_bucket{le="1"}
lrgp_enact_cycle_seconds_bucket{le="5"}
lrgp_enact_cycle_seconds_bucket{le="+Inf"}
lrgp_enact_cycle_seconds_sum
lrgp_enact_cycle_seconds_count
# HELP lrgp_enact_allocation_delta Largest relative change of the latest re-solved allocation vs the last enacted one.
# TYPE lrgp_enact_allocation_delta gauge
lrgp_enact_allocation_delta
# HELP lrgp_enact_oscillation Fraction of recent per-class admission changes that reversed direction (0 converged, 1 flapping).
# TYPE lrgp_enact_oscillation gauge
lrgp_enact_oscillation
# HELP lrgp_enact_demand_consumers Attached-consumer demand observed by the most recent autopilot cycle.
# TYPE lrgp_enact_demand_consumers gauge
lrgp_enact_demand_consumers
# HELP lrgp_enact_route_builds_total Broker enacts by route-snapshot build outcome.
# TYPE lrgp_enact_route_builds_total counter
lrgp_enact_route_builds_total{mode="noop"}
lrgp_enact_route_builds_total{mode="incremental"}
`

// families splits an exposition into its families, keyed by name, each
// the lines from its # HELP up to the next family's, sample values cut off
// (no series name here holds a space).
func families(expo string) map[string]string {
	out := make(map[string]string)
	var name string
	for _, line := range strings.SplitAfter(expo, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
		} else if cut := strings.LastIndexByte(line, ' '); cut >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:cut] + "\n"
		}
		out[name] += line
	}
	return out
}

// TestTelemetryExposition pins what a broker and its autopilot export.
// The families, help text, types and label sets equal pinnedExposition;
// and across a seeded mix of attaches (filtered on odd classes), detaches,
// allocations, publishes, throttling floods, rate caps that thin a class,
// and autopilot cycles that enact and skip, every lrgp_broker_* and
// lrgp_enact_* counter and gauge equals the value derived from the
// broker's and the autopilot's stats after every op, and each histogram
// counted one observation per event it times.
func TestTelemetryExposition(t *testing.T) {
	p := gridProblem(3, 2)
	clock := newFakeClock()
	reg := telemetry.NewRegistry()
	b, err := New(p, WithClock(clock.Now), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAutopilot(b, AutopilotConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, want := families(sb.String()), families(pinnedExposition)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("family %s:\n%s\nwant:\n%s", name, got[name], w)
		}
	}
	for name := range got {
		if want[name] == "" {
			t.Errorf("unexpected family %s", name)
		}
	}

	var stats []ClassStats
	derived := func() map[string]any {
		var published, throttled uint64
		for i := range p.Flows {
			fs, err := b.FlowStats(model.FlowID(i))
			if err != nil {
				t.Fatal(err)
			}
			published += fs.Published
			throttled += fs.Throttled
		}
		var delivered, filtered, thinned uint64
		var attached, admitted int
		stats = b.AllClassStats(stats)
		for _, cs := range stats {
			delivered += cs.Delivered
			filtered += cs.Filtered
			thinned += cs.Thinned
			attached += cs.Attached
			admitted += cs.Admitted
		}
		es, as := b.EnactStats(), a.Stats()
		return map[string]any{
			"lrgp_broker_published_total":                       published,
			"lrgp_broker_throttled_total":                       throttled,
			"lrgp_broker_delivered_total":                       delivered,
			"lrgp_broker_filtered_total":                        filtered,
			"lrgp_broker_thinned_total":                         thinned,
			"lrgp_broker_consumers_attached":                    float64(attached),
			"lrgp_broker_consumers_admitted":                    float64(admitted),
			"lrgp_broker_allocations_total":                     es.Applies,
			"lrgp_broker_work_units_total":                      b.WorkUnits(),
			"lrgp_enact_classes_touched_total":                  es.ClassesTouched,
			"lrgp_enact_flows_touched_total":                    es.FlowsTouched,
			"lrgp_enact_rates_changed_total":                    es.RatesChanged,
			`lrgp_enact_route_builds_total{mode="noop"}`:        es.RouteNoops,
			`lrgp_enact_route_builds_total{mode="incremental"}`: es.RouteIncrementals,
			`lrgp_enact_cycles_total{result="enacted"}`:         uint64(as.Enacted),
			`lrgp_enact_cycles_total{result="skipped"}`:         uint64(as.Skipped),
			"lrgp_enact_allocation_delta":                       as.LastDelta,
			"lrgp_enact_oscillation":                            as.Oscillation,
			"lrgp_enact_demand_consumers":                       float64(as.DemandConsumers),
			// The histograms count one observation per accepted publish,
			// per enact decision and per completed cycle.
			"lrgp_broker_fanout":       published,
			"lrgp_enact_apply_seconds": es.RouteNoops + es.RouteIncrementals,
			"lrgp_enact_cycle_seconds": uint64(as.Enacted + as.Skipped),
		}
	}
	check := func(step int, op string) {
		t.Helper()
		m, want := scrapeOf(reg), derived()
		if len(m) != len(want) {
			t.Fatalf("step %d (%s): the registry holds %d series, want %d", step, op, len(m), len(want))
		}
		for key, w := range want {
			got := m[key]
			if h, ok := got.(map[string]any); ok {
				got = h["count"]
			}
			if got != w {
				t.Fatalf("step %d (%s): %s = %v, the stats say %v", step, op, key, got, w)
			}
		}
	}

	rng := rand.New(rand.NewSource(42))
	var live []ConsumerID
	alloc := model.NewAllocation(p)
	reached := map[string]int{}
	check(-1, "new")
	for step := 0; step < 600; step++ {
		clock.Advance(time.Duration(rng.Intn(50)) * time.Millisecond)
		var op string
		switch r := rng.Intn(8); {
		case r == 0 || len(live) == 0:
			op = "attach"
			j := rng.Intn(len(p.Classes))
			var f Filter
			if j%2 == 1 {
				f = AttrFilter{Attr: "x", Op: CmpGT, Value: float64(rng.Intn(10))}
			}
			id, err := b.AttachConsumer(model.ClassID(j), f, nil)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case r == 1:
			op = "detach"
			k := rng.Intn(len(live))
			if err := b.DetachConsumer(live[k]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, k, k+1)
		case r == 2:
			op = "apply"
			for i := range alloc.Rates {
				alloc.Rates[i] = []float64{20, 200, 2000}[rng.Intn(3)]
			}
			for j := range alloc.Consumers {
				alloc.Consumers[j] = rng.Intn(6)
			}
			if err := b.ApplyAllocation(alloc); err != nil {
				t.Fatal(err)
			}
		case r == 3:
			op = "cap"
			if err := b.SetClassRateCap(model.ClassID(rng.Intn(len(p.Classes))), []float64{0, 0.5, 1e6}[rng.Intn(3)]); err != nil {
				t.Fatal(err)
			}
		case r == 4:
			op = "flood"
			flow := model.FlowID(rng.Intn(len(p.Flows)))
			for i := 0; b.Publish(flow, nil, "flood") == nil; i++ {
				if i > 1e4 {
					t.Fatal("the rate limiter never throttled")
				}
			}
		case r == 5:
			op = "cycle"
			// Back-to-back cycles on a stopped clock: the second sees the
			// first's demand and offered rates, and usually skips.
			for range 2 {
				_, enacted, err := a.Cycle()
				if err != nil {
					t.Fatal(err)
				}
				reached[fmt.Sprint("cycle enacted=", enacted)]++
			}
		default:
			op = "publish"
			err := b.Publish(model.FlowID(rng.Intn(len(p.Flows))), map[string]float64{"x": float64(rng.Intn(10))}, "m")
			if err != nil && !errors.Is(err, ErrThrottled) {
				t.Fatal(err)
			}
		}
		reached[op]++
		check(step, op)
	}
	m := scrapeOf(reg)
	for _, key := range []string{
		"lrgp_broker_throttled_total", "lrgp_broker_filtered_total", "lrgp_broker_thinned_total",
		"lrgp_enact_rates_changed_total", `lrgp_enact_route_builds_total{mode="noop"}`,
		`lrgp_enact_route_builds_total{mode="incremental"}`,
		`lrgp_enact_cycles_total{result="enacted"}`, `lrgp_enact_cycles_total{result="skipped"}`,
	} {
		if m.counter(key) == 0 {
			t.Errorf("the op mix never moved %s (ops: %v)", key, reached)
		}
	}
	if m.gauge("lrgp_broker_consumers_admitted") == 0 || m.gauge("lrgp_enact_demand_consumers") == 0 {
		t.Errorf("the op mix ended with nobody admitted or no demand (ops: %v)", reached)
	}
	t.Logf("ops: %v", reached)
}

// TestInstrumentedPathsDoNotAllocate: telemetry adds no allocation to the
// paths it observes — an instrumented Identity publish stays at 0 allocs
// and an instrumented no-op enact allocates what an uninstrumented one
// does.
func TestInstrumentedPathsDoNotAllocate(t *testing.T) {
	bare, alloc := gridBroker(t, 4, 2, 8, 8)
	inst, err := New(bare.Problem(), WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	for j := range bare.Problem().Classes {
		for range 8 {
			if _, err := inst.AttachConsumer(model.ClassID(j), nil, func(Message) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := inst.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	attrs := map[string]float64{"price": 80}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := inst.Publish(0, attrs, "x"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("instrumented Identity Publish allocs/op = %g, want 0", allocs)
	}
	noop := func(b *Broker) func() {
		return func() {
			if err := b.ApplyAllocation(alloc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := testing.AllocsPerRun(1000, noop(inst)), testing.AllocsPerRun(1000, noop(bare)); got != want {
		t.Errorf("instrumented no-op ApplyAllocation allocs/op = %g, uninstrumented %g", got, want)
	}
}
