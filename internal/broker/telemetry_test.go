package broker

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestBrokerTelemetryCounters drives every accounting path of Publish —
// accepted deliveries, filter drops, rate-limit throttles, multirate
// thinning — plus attach/detach and allocation enactment, and checks the
// mirrored telemetry against the broker's own stats.
func TestBrokerTelemetryCounters(t *testing.T) {
	p := workload.Base()
	reg := telemetry.NewRegistry()
	bm := telemetry.NewBrokerMetrics(reg)

	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b, err := New(p, WithClock(clock), WithTelemetry(bm))
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
	if got := bm.Attached.Value(); got != 2 {
		t.Errorf("attached gauge = %g, want 2", got)
	}
	if got := bm.Admitted.Value(); got != 0 {
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
	if got := bm.Allocations.Value(); got != 1 {
		t.Errorf("allocations counter = %d, want 1", got)
	}
	if got := bm.Admitted.Value(); got != 2 {
		t.Errorf("admitted gauge = %g, want 2", got)
	}

	// One message inside the rate budget: delivered to the matching
	// consumer, filtered by the other.
	now = now.Add(time.Second)
	if err := b.Publish(0, map[string]float64{"price": 80}, "tick"); err != nil {
		t.Fatal(err)
	}
	if bm.Published.Value() != 1 || bm.Delivered.Value() != 1 || bm.Filtered.Value() != 1 {
		t.Errorf("publish counters = %d/%d/%d, want 1/1/1",
			bm.Published.Value(), bm.Delivered.Value(), bm.Filtered.Value())
	}
	if count, _ := bm.Fanout.CountSum(); count != 1 {
		t.Errorf("fanout histogram count = %d, want 1", count)
	}
	if got, want := bm.WorkUnits.Value(), b.WorkUnits(); got != want {
		t.Errorf("work units counter = %d, broker reports %d", got, want)
	}

	// Exhaust the token budget: the next publish must be throttled.
	for i := 0; b.Publish(0, nil, "flood") == nil; i++ {
		if i > 1000 {
			t.Fatal("rate limiter never throttled")
		}
	}
	if bm.Throttled.Value() == 0 {
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
	if bm.Thinned.Value() == 0 {
		t.Error("thinned counter not incremented")
	}

	// Detach updates the gauges.
	if err := b.DetachConsumer(pass); err != nil {
		t.Fatal(err)
	}
	if got := bm.Attached.Value(); got != 1 {
		t.Errorf("attached gauge after detach = %g, want 1", got)
	}

	// The mirrored counters must agree with the broker's own stats.
	fs, err := b.FlowStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Published.Value() != fs.Published || bm.Throttled.Value() != fs.Throttled {
		t.Errorf("telemetry %d/%d vs FlowStats %d/%d",
			bm.Published.Value(), bm.Throttled.Value(), fs.Published, fs.Throttled)
	}
}

// TestBrokerWithoutTelemetry: the nil handle must leave every path
// functional (nil-safe observes).
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

// TestConsumerGaugesMatchClassStats: the consumer gauges are running
// totals kept by the operations that move them, not a scan of the
// classes. Across a seeded sequence of attaches, detaches and allocations
// that grow and shrink classes, they equal a from-scratch sum of
// AllClassStats after every operation.
func TestConsumerGaugesMatchClassStats(t *testing.T) {
	p := stressProblem(6)
	bm := telemetry.NewBrokerMetrics(telemetry.NewRegistry())
	br, err := New(p, WithTelemetry(bm))
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
		if bm.Attached.Value() != float64(attached) || bm.Admitted.Value() != float64(admitted) {
			t.Fatalf("step %d (%s): gauges read %g attached, %g admitted; the classes sum to %d, %d",
				step, op, bm.Attached.Value(), bm.Admitted.Value(), attached, admitted)
		}
	}
}
