package telemetry

import (
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

func TestNilHandlesAreSafe(t *testing.T) {
	var em *EngineMetrics
	em.ObserveStep([3]int64{1, 2, 3}, 10, 0, 0, 3, 2, 1, 4)
	em.ObserveConvergence(true, 42)
	// The disabled path must stay one predictable branch: no allocations
	// even with the dirty-set arguments threaded through.
	if allocs := testing.AllocsPerRun(100, func() {
		em.ObserveStep([3]int64{1, 2, 3}, 10, 0, 0, 3, 2, 1, 4)
	}); allocs > 0 {
		t.Errorf("nil-handle ObserveStep allocates %v per run, want 0", allocs)
	}
	var bm *BrokerMetrics
	bm.ObservePublish(3, 1, 7)
	bm.ObserveThrottle()
	bm.ObserveThinned()
	bm.ObserveConsumers(5, 2)
	bm.ObserveAllocation()
}

func TestEngineMetricsObserveStep(t *testing.T) {
	reg := NewRegistry()
	em := NewEngineMetrics(reg)
	em.ObserveStep([3]int64{1000, 2000, 3000}, 123.5, 0.25, -1, 3, 2, 6, 0)
	em.ObserveStep([3]int64{1000, 2000, 3000}, 130, 0, -2, 3, 2, 2, 3)
	if got := em.Steps.Value(); got != 2 {
		t.Errorf("steps = %d, want 2", got)
	}
	if got := em.Utility.Value(); got != 130 {
		t.Errorf("utility gauge = %g, want 130 (last write wins)", got)
	}
	if got := em.NodePriceUpdates.Value(); got != 6 {
		t.Errorf("node price updates = %d, want 6", got)
	}
	if got := em.LinkPriceUpdates.Value(); got != 4 {
		t.Errorf("link price updates = %d, want 4", got)
	}
	count, sum := em.StageSeconds[StageRate].CountSum()
	if count != 2 || math.Abs(sum-2e-6) > 1e-12 {
		t.Errorf("rate stage histogram = (%d, %g), want (2, 2e-6)", count, sum)
	}
	if got := em.ConvergedIteration.Value(); got != -1 {
		t.Errorf("converged iteration starts at %g, want -1", got)
	}
	if em.DirtyFlows.Value() != 2 || em.SkippedConstraints.Value() != 3 {
		t.Errorf("dirty-set gauges = (%g, %g), want (2, 3) (last write wins)",
			em.DirtyFlows.Value(), em.SkippedConstraints.Value())
	}
	em.ObserveConvergence(true, 37)
	if em.Converged.Value() != 1 || em.ConvergedIteration.Value() != 37 {
		t.Errorf("convergence gauges = (%g, %g), want (1, 37)",
			em.Converged.Value(), em.ConvergedIteration.Value())
	}
}

func TestBrokerMetricsObserve(t *testing.T) {
	reg := NewRegistry()
	bm := NewBrokerMetrics(reg)
	bm.ObservePublish(4, 2, 11)
	bm.ObserveThrottle()
	bm.ObserveThinned()
	bm.ObserveConsumers(10, 4)
	bm.ObserveAllocation()
	if bm.Published.Value() != 1 || bm.Delivered.Value() != 4 ||
		bm.Filtered.Value() != 2 || bm.WorkUnits.Value() != 11 {
		t.Errorf("publish counters = %d/%d/%d/%d", bm.Published.Value(),
			bm.Delivered.Value(), bm.Filtered.Value(), bm.WorkUnits.Value())
	}
	if bm.Throttled.Value() != 1 || bm.Thinned.Value() != 1 || bm.Allocations.Value() != 1 {
		t.Error("throttle/thin/allocation counters wrong")
	}
	if bm.Attached.Value() != 10 || bm.Admitted.Value() != 4 {
		t.Error("consumer gauges wrong")
	}
	count, _ := bm.Fanout.CountSum()
	if count != 1 {
		t.Errorf("fanout histogram count = %d, want 1", count)
	}
}
