package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_count_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := reg.Gauge("t_gauge", "help")
	g.Set(2.5)
	g.Set(-0.5)
	if got := g.Value(); got != -0.5 {
		t.Errorf("gauge = %g, want -0.5", got)
	}
}

func TestRegistrationIdempotentSameKind(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("t_total", "help", Label{Key: "k", Value: "v"})
	b := reg.Counter("t_total", "help", Label{Key: "k", Value: "v"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	// Same family, different labels: distinct metrics.
	c := reg.Counter("t_total", "help", Label{Key: "k", Value: "w"})
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
}

func TestRegistrationKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("t_metric", "help")
	reg.Gauge("t_metric", "help")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid name did not panic")
		}
	}()
	NewRegistry().Counter("0bad name", "help")
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	count, sum := h.CountSum()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if sum != 111.5 {
		t.Errorf("sum = %g, want 111.5", sum)
	}
	// Bucket membership is le-style: 1 lands in the le=1 bucket.
	if got := h.counts[0].Load(); got != 2 {
		t.Errorf("le=1 bucket = %d, want 2 (0.5 and 1)", got)
	}
	if got := h.counts[3].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1 (100)", got)
	}
}

func TestPrometheusRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_reqs_total", "Requests.").Add(3)
	reg.Gauge("t_temp", "Temperature.").Set(-1.5)
	reg.Counter("t_by_kind_total", "By kind.", Label{Key: "kind", Value: "a"}).Inc()
	reg.Counter("t_by_kind_total", "By kind.", Label{Key: "kind", Value: "b"}).Add(2)
	h := reg.Histogram("t_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP t_reqs_total Requests.",
		"# TYPE t_reqs_total counter",
		"t_reqs_total 3",
		"t_temp -1.5",
		`t_by_kind_total{kind="a"} 1`,
		`t_by_kind_total{kind="b"} 2`,
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{le="0.1"} 1`,
		`t_lat_seconds_bucket{le="1"} 2`,
		`t_lat_seconds_bucket{le="+Inf"} 3`,
		"t_lat_seconds_sum 2.55",
		"t_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once per family even with multiple
	// label sets.
	if n := strings.Count(out, "# TYPE t_by_kind_total"); n != 1 {
		t.Errorf("t_by_kind_total TYPE emitted %d times, want 1", n)
	}
}

func TestFamilySamplesContiguous(t *testing.T) {
	// Interleave registration of two families; rendering must still
	// group each family's samples.
	reg := NewRegistry()
	reg.Counter("t_a_total", "A.", Label{Key: "i", Value: "1"})
	reg.Counter("t_b_total", "B.")
	reg.Counter("t_a_total", "A.", Label{Key: "i", Value: "2"})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	b := strings.Index(out, "t_b_total")
	a2 := strings.Index(out, `t_a_total{i="2"}`)
	if b < a2 {
		t.Errorf("family t_a_total split around t_b_total:\n%s", out)
	}
}

func TestFormatValueSpecials(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		2.5:          "2.5",
		1e7:          "1e+07",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%g) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestSnapshotMap(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_c_total", "C.").Add(7)
	reg.Gauge("t_g", "G.").Set(1.25)
	reg.Histogram("t_h", "H.", []float64{1}).Observe(0.5)
	snap := reg.Snapshot()
	if got := snap["t_c_total"]; got != uint64(7) {
		t.Errorf("counter snapshot = %v", got)
	}
	if got := snap["t_g"]; got != 1.25 {
		t.Errorf("gauge snapshot = %v", got)
	}
	hs, ok := snap["t_h"].(map[string]any)
	if !ok || hs["count"] != uint64(1) || hs["sum"] != 0.5 {
		t.Errorf("histogram snapshot = %v", snap["t_h"])
	}
}

// TestConcurrentObservation exercises the lock-free paths under the race
// detector: concurrent counter adds, gauge sets and histogram observes
// must neither race nor lose updates (counters/counts are exact; the
// float sums are CAS loops so they are exact too; a gauge holds one of
// the values set).
func TestConcurrentObservation(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_conc_total", "help")
	g := reg.Gauge("t_conc_gauge", "help")
	h := reg.Histogram("t_conc_hist", "help", DurationBuckets())

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != math.Trunc(got) || got < 0 || got >= workers {
		t.Errorf("gauge = %g, want a worker's index", got)
	}
	count, sum := h.CountSum()
	if count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", count, workers*perWorker)
	}
	if want := workers * perWorker * 1e-4; math.Abs(sum-want) > 1e-9 {
		t.Errorf("histogram sum = %g, want %g", sum, want)
	}
}

// TestObservationDoesNotAllocate pins the lock-free claim: Observe, Inc
// and Set allocate nothing, which is what lets instrumented hot
// paths keep their 0 allocs/op guarantee.
func TestObservationDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_alloc_total", "help")
	g := reg.Gauge("t_alloc_gauge", "help")
	h := reg.Histogram("t_alloc_hist", "help", DurationBuckets())
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		h.Observe(2e-3)
		h.ObserveSeconds(1500)
	}); allocs > 0 {
		t.Errorf("observation path allocates %v per run, want 0", allocs)
	}
}

// TestDefaultBuckets: the layouts keep their historical bounds, and the
// µs-scale layout resolves sub-µs latencies that DurationBuckets flattens
// into its first bucket.
func TestDefaultBuckets(t *testing.T) {
	var def strings.Builder
	reg := NewRegistry()
	reg.Histogram("t_stage_seconds", "Stage wall time.", DurationBuckets())
	reg.Histogram("t_fanout", "Fan-out.", FanoutBuckets())
	reg.WritePrometheus(&def)
	if !strings.Contains(def.String(), `t_stage_seconds_bucket{le="1e-06"}`) {
		t.Error("DurationBuckets lost the 1µs bound")
	}
	if !strings.Contains(def.String(), `t_fanout_bucket{le="1000"}`) {
		t.Error("FanoutBuckets lost the 1000 bound")
	}
	if MicroDurationBuckets()[0] >= DurationBuckets()[0] {
		t.Error("MicroDurationBuckets does not extend below DurationBuckets")
	}
}

// TestFuncInstrumentsRender: a CounterFunc or GaugeFunc renders like the
// counter or gauge it is — HELP and TYPE once per family, one sample per
// label set — and reads its function's current value in WritePrometheus,
// Snapshot and the JSON /debug/vars serves Snapshot as.
func TestFuncInstrumentsRender(t *testing.T) {
	reg := NewRegistry()
	n := uint64(3)
	reg.CounterFunc("t_fn_total", "Func counter.", func() uint64 { return n }, Label{Key: "k", Value: "a"})
	reg.CounterFunc("t_fn_total", "Func counter.", func() uint64 { return 2 * n }, Label{Key: "k", Value: "b"})
	reg.GaugeFunc("t_fn_gauge", "Func gauge.", func() float64 { return -float64(n) / 2 })
	n = 7

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_fn_total Func counter.
# TYPE t_fn_total counter
t_fn_total{k="a"} 7
t_fn_total{k="b"} 14
# HELP t_fn_gauge Func gauge.
# TYPE t_fn_gauge gauge
t_fn_gauge -3.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	snap := reg.Snapshot()
	if got := snap[`t_fn_total{k="b"}`]; got != uint64(14) {
		t.Errorf("counter func snapshot = %v (%T), want uint64 14", got, got)
	}
	if got := snap["t_fn_gauge"]; got != -3.5 {
		t.Errorf("gauge func snapshot = %v, want -3.5", got)
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"t_fn_total{k=\"a\"}":7`, `"t_fn_gauge":-3.5`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("/debug/vars JSON %s lacks %s", js, want)
		}
	}
}

// TestFuncKindMismatchPanics: a func-backed metric and an atomic one are
// different kinds, even of one exposition TYPE, so registering either
// where the other is, or a counter where a gauge is, panics.
func TestFuncKindMismatchPanics(t *testing.T) {
	one := func() uint64 { return 1 }
	half := func() float64 { return 0.5 }
	for name, pair := range map[string][2]func(r *Registry){
		"counter func then gauge":      {func(r *Registry) { r.CounterFunc("t_m", "h", one) }, func(r *Registry) { r.Gauge("t_m", "h") }},
		"gauge func then counter func": {func(r *Registry) { r.GaugeFunc("t_m", "h", half) }, func(r *Registry) { r.CounterFunc("t_m", "h", one) }},
		"counter then counter func":    {func(r *Registry) { r.Counter("t_m", "h") }, func(r *Registry) { r.CounterFunc("t_m", "h", one) }},
		"counter func then counter":    {func(r *Registry) { r.CounterFunc("t_m", "h", one) }, func(r *Registry) { r.Counter("t_m", "h") }},
		"gauge then gauge func":        {func(r *Registry) { r.Gauge("t_m", "h") }, func(r *Registry) { r.GaugeFunc("t_m", "h", half) }},
		"histogram then gauge func":    {func(r *Registry) { r.Histogram("t_m", "h", []float64{1}) }, func(r *Registry) { r.GaugeFunc("t_m", "h", half) }},
	} {
		t.Run(name, func(t *testing.T) {
			reg := NewRegistry()
			pair[0](reg)
			defer func() {
				if recover() == nil {
					t.Error("kind mismatch did not panic")
				}
			}()
			pair[1](reg)
		})
	}
}

// TestFuncRegisteredTwiceKeepsFirst: registration is idempotent for the
// func kinds as for the atomic ones — a second CounterFunc or GaugeFunc
// under a registered name+labels is ignored, and the series keeps reading
// the first function.
func TestFuncRegisteredTwiceKeepsFirst(t *testing.T) {
	reg := NewRegistry()
	secondCalled := false
	reg.CounterFunc("t_twice_total", "First.", func() uint64 { return 1 })
	reg.CounterFunc("t_twice_total", "Second.", func() uint64 { secondCalled = true; return 2 })
	reg.GaugeFunc("t_twice", "First.", func() float64 { return 1.5 })
	reg.GaugeFunc("t_twice", "Second.", func() float64 { secondCalled = true; return 2.5 })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if secondCalled {
		t.Error("a second registration's function was called")
	}
	if snap["t_twice_total"] != uint64(1) || snap["t_twice"] != 1.5 {
		t.Errorf("snapshot = %v, want the first functions' 1 and 1.5", snap)
	}
	out := sb.String()
	if strings.Count(out, "t_twice_total 1\n") != 1 || strings.Count(out, "t_twice 1.5\n") != 1 ||
		strings.Contains(out, "Second.") {
		t.Errorf("exposition should hold each series once, as first registered:\n%s", out)
	}
}

// TestFuncRunsOnlyWhenScraped: a func-backed metric costs nothing until a
// scrape — its function runs neither on registration nor when the
// registry's other instruments are observed, and once per series per
// WritePrometheus or Snapshot.
func TestFuncRunsOnlyWhenScraped(t *testing.T) {
	reg := NewRegistry()
	var counterCalls, gaugeCalls int
	reg.CounterFunc("t_lazy_total", "Lazy.", func() uint64 { counterCalls++; return 0 })
	reg.GaugeFunc("t_lazy", "Lazy.", func() float64 { gaugeCalls++; return 0 })
	reg.Counter("t_eager_total", "Eager.").Inc()
	reg.Gauge("t_eager", "Eager.").Set(1)
	reg.Histogram("t_eager_seconds", "Eager.", DurationBuckets()).ObserveSeconds(1000)
	if counterCalls != 0 || gaugeCalls != 0 {
		t.Fatalf("before any scrape: %d counter and %d gauge calls, want 0", counterCalls, gaugeCalls)
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if counterCalls != 1 || gaugeCalls != 1 {
		t.Errorf("after WritePrometheus: %d and %d calls, want 1 and 1", counterCalls, gaugeCalls)
	}
	reg.Snapshot()
	if counterCalls != 2 || gaugeCalls != 2 {
		t.Errorf("after Snapshot: %d and %d calls, want 2 and 2", counterCalls, gaugeCalls)
	}
}
