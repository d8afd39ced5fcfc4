package broker

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
)

// routesShareBacking reports whether two per-flow route lists are the
// same published list (same backing array), the incremental path's
// sharing contract for clean flows.
func routesShareBacking(a, b []*classRoute) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return &a[0] == &b[0]
}

// enactedBroker builds a broker over `flows` flows (one class per flow)
// with `consumers` admitted consumers each, returning the broker and the
// enacted allocation.
func enactedBroker(t *testing.T, flows, consumers int) (*Broker, model.Allocation) {
	t.Helper()
	return gridBroker(t, flows, 1, consumers, consumers)
}

// TestApplyAllocationNoopKeepsSnapshot: re-enacting the enacted
// allocation publishes nothing — the route table pointer is unchanged
// and the enact is accounted as a no-op.
func TestApplyAllocationNoopKeepsSnapshot(t *testing.T) {
	br, alloc := enactedBroker(t, 8, 4)
	before := br.route.Load()
	if err := br.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	if after := br.route.Load(); after != before {
		t.Error("no-op allocation swapped the route snapshot")
	}
	s := br.EnactStats()
	if s.NoopApplies != 1 {
		t.Errorf("NoopApplies = %d, want 1", s.NoopApplies)
	}
	if s.RouteNoops < 1 {
		t.Errorf("RouteNoops = %d, want >= 1", s.RouteNoops)
	}
}

// TestApplyAllocationRateOnlyNoSwap: changing only flow rates re-rates
// token buckets in place and swaps no snapshot.
func TestApplyAllocationRateOnlyNoSwap(t *testing.T) {
	br, alloc := enactedBroker(t, 8, 4)
	before := br.route.Load()
	s0 := br.EnactStats()
	alloc.Rates[3] = 5e8
	if err := br.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	if after := br.route.Load(); after != before {
		t.Error("rate-only allocation swapped the route snapshot")
	}
	fs, err := br.FlowStats(3)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Rate != 5e8 {
		t.Errorf("flow 3 rate = %g, want 5e8 (bucket must still be re-rated)", fs.Rate)
	}
	if s := br.EnactStats(); s.RatesChanged-s0.RatesChanged != 1 {
		t.Errorf("RatesChanged delta = %d, want 1", s.RatesChanged-s0.RatesChanged)
	}
}

// TestApplyAllocationDeltaSharesCleanFlows: a single-class admission
// delta on a multi-flow broker publishes a new snapshot that rebuilds
// only the dirty flow's slice and shares every other flow's slice, by
// backing array, with its predecessor.
func TestApplyAllocationDeltaSharesCleanFlows(t *testing.T) {
	br, alloc := enactedBroker(t, 16, 4)
	before := br.route.Load()
	s0 := br.EnactStats()
	alloc.Consumers[5] = 2
	if err := br.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	after := br.route.Load()
	if after == before {
		t.Fatal("admission delta did not swap the route snapshot")
	}
	for i := 0; i < 16; i++ {
		fid := model.FlowID(i)
		shared := routesShareBacking(before.flowRoutes(fid), after.flowRoutes(fid))
		if i == 5 {
			if shared {
				t.Error("dirty flow 5 shares its route slice with the old snapshot")
			}
			continue
		}
		if !shared {
			t.Errorf("clean flow %d got a new route slice", i)
		}
	}
	if s := br.EnactStats(); s.RouteIncrementals-s0.RouteIncrementals != 1 || s.FlowsTouched-s0.FlowsTouched != 1 {
		t.Errorf("delta enact: %d incremental republishes touching %d flows, want 1 and 1",
			s.RouteIncrementals-s0.RouteIncrementals, s.FlowsTouched-s0.FlowsTouched)
	}
}

// TestApplyAllocationNoopAllocs pins the no-op enact's allocation bar
// from the acceptance criteria (≤ 2; the path is designed for 0).
func TestApplyAllocationNoopAllocs(t *testing.T) {
	br, alloc := enactedBroker(t, 16, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := br.ApplyAllocation(alloc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("no-op ApplyAllocation allocs/op = %g, want <= 2", allocs)
	}
}

// TestApplyAllocationRejectsBadRate: a rate no token bucket can run at is
// refused with ErrBadRate before anything changes — a NaN refill rate would
// turn the bucket's token count NaN, and a NaN count admits every message
// from then on whatever rate is enacted later. The bad rate sits behind a
// valid change to flow 0 and beside an admission change, neither of which
// may land.
func TestApplyAllocationRejectsBadRate(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		clock := newFakeClock()
		br, err := New(fanProblem(3), WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := br.AttachConsumer(1, nil, nil); err != nil {
			t.Fatal(err)
		}
		good := model.Allocation{Rates: []float64{20, 20, 20}, Consumers: []int{0, 1, 0}}
		if err := br.ApplyAllocation(good); err != nil {
			t.Fatal(err)
		}
		before, stats := br.route.Load(), br.EnactStats()
		err = br.ApplyAllocation(model.Allocation{Rates: []float64{30, bad, 20}, Consumers: []int{0, 0, 0}})
		if !errors.Is(err, ErrBadRate) {
			t.Fatalf("rate %g: err = %v, want ErrBadRate", bad, err)
		}
		for i := range good.Rates {
			if got := br.flows[i].bucket.Rate(); got != 20 {
				t.Errorf("rate %g: flow %d bucket rate = %g, want 20", bad, i, got)
			}
			if fs, _ := br.FlowStats(model.FlowID(i)); fs.Rate != 20 {
				t.Errorf("rate %g: flow %d reported rate = %g, want 20", bad, i, fs.Rate)
			}
		}
		if !slices.Equal(br.enactedRates, good.Rates) || !slices.Equal(br.admittedCount, []int32{0, 1, 0}) {
			t.Errorf("rate %g: enacted state = %v / %v, want %v / [0 1 0]", bad, br.enactedRates, br.admittedCount, good.Rates)
		}
		if br.route.Load() != before || br.EnactStats() != stats {
			t.Errorf("rate %g: a refused allocation republished or was counted", bad)
		}
		// The bucket still works: a valid enact takes, and throttles.
		if err := br.ApplyAllocation(model.Allocation{Rates: []float64{20, 5, 20}, Consumers: []int{0, 1, 0}}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
		passed := 0
		for k := 0; k < 100; k++ {
			if br.Publish(1, nil, "") == nil {
				passed++
			}
		}
		if passed == 0 || passed > 20 {
			t.Errorf("rate %g: %d of 100 publishes passed a 5 msg/s bucket after the refused enact", bad, passed)
		}
	}
}

// TestSetClassRateCapRejectsBadRate: a NaN or +Inf cap is refused with
// ErrBadRate and leaves the class's thinner, its rate and the published
// snapshot as they were — a bucket refilled at either would thin nothing.
// A cap of 0 or below removes the thinner, a finite cap installs one or
// re-rates it in place. Each case runs on an uncapped class and on one
// capped at 10 msg/s.
func TestSetClassRateCapRejectsBadRate(t *testing.T) {
	cases := []struct {
		rate    float64
		refused bool
		want    float64 // unless refused, the thinner's rate afterwards; 0 means none
	}{
		{math.NaN(), true, 0},
		{math.Inf(1), true, 0},
		{0, false, 0},
		{-1, false, 0},
		{5, false, 5},
	}
	for _, c := range cases {
		for _, capped := range []bool{false, true} {
			br, _ := enactedBroker(t, 4, 2)
			if capped {
				if err := br.SetClassRateCap(2, 10); err != nil {
					t.Fatal(err)
				}
			}
			before, route := br.classes[2].thinner, br.route.Load()
			err := br.SetClassRateCap(2, c.rate)
			after := br.classes[2].thinner
			if c.refused {
				if !errors.Is(err, ErrBadRate) {
					t.Errorf("cap %g (capped %v): err = %v, want ErrBadRate", c.rate, capped, err)
				}
				if after != before || br.route.Load() != route {
					t.Errorf("cap %g (capped %v): a refused cap changed the thinner or republished", c.rate, capped)
				}
				if capped && before.Rate() != 10 {
					t.Errorf("cap %g: refused, yet the thinner's rate moved to %g from 10", c.rate, before.Rate())
				}
				continue
			}
			if err != nil {
				t.Errorf("cap %g (capped %v): err = %v", c.rate, capped, err)
				continue
			}
			switch {
			case c.want == 0 && after != nil:
				t.Errorf("cap %g (capped %v): thinner still installed", c.rate, capped)
			case c.want != 0 && (after == nil || after.Rate() != c.want):
				t.Errorf("cap %g (capped %v): thinner %v, want one at %g", c.rate, capped, after, c.want)
			case c.want != 0 && capped && after != before:
				t.Errorf("cap %g: re-rating a cap replaced its thinner", c.rate)
			}
		}
	}
}

// TestDetachUnadmittedNoSwap: detaching a consumer that was never
// admitted is invisible to the data plane and publishes nothing — the
// attach/detach-storm fast path.
func TestDetachUnadmittedNoSwap(t *testing.T) {
	br, _ := enactedBroker(t, 8, 4)
	id, err := br.AttachConsumer(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := br.route.Load()
	if err := br.DetachConsumer(id); err != nil {
		t.Fatal(err)
	}
	if after := br.route.Load(); after != before {
		t.Error("detach of never-admitted consumer swapped the route snapshot")
	}
}

// TestDetachAdmittedRebuildsOnlyItsFlow: detaching an admitted consumer
// republishes, touching only its class's flow.
func TestDetachAdmittedRebuildsOnlyItsFlow(t *testing.T) {
	br, _ := enactedBroker(t, 16, 4)
	var victim ConsumerID
	br.mu.Lock()
	victim = br.classes[7].ids[3]
	br.mu.Unlock()
	before := br.route.Load()
	if err := br.DetachConsumer(victim); err != nil {
		t.Fatal(err)
	}
	after := br.route.Load()
	if after == before {
		t.Fatal("detach of admitted consumer did not republish")
	}
	for i := 0; i < 16; i++ {
		fid := model.FlowID(i)
		shared := routesShareBacking(before.flowRoutes(fid), after.flowRoutes(fid))
		if i == 7 && shared {
			t.Error("dirty flow 7 shares its route slice with the old snapshot")
		}
		if i != 7 && !shared {
			t.Errorf("clean flow %d got a new route slice", i)
		}
	}
}

// TestSetClassRateCapRemoveAbsentNoop: removing a cap that was never
// installed publishes nothing.
func TestSetClassRateCapRemoveAbsentNoop(t *testing.T) {
	br, _ := enactedBroker(t, 8, 4)
	before := br.route.Load()
	if err := br.SetClassRateCap(3, 0); err != nil {
		t.Fatal(err)
	}
	if after := br.route.Load(); after != before {
		t.Error("removing an absent rate cap swapped the route snapshot")
	}
}

// TestApplyAllocationShrinkLIFOIncremental: LIFO shrink semantics hold on
// a multi-flow broker with a single dirty class exactly as on the
// one-flow broker of TestApplyAllocationShrinksLIFO.
func TestApplyAllocationShrinkLIFOIncremental(t *testing.T) {
	p := fanProblem(16)
	br, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	alloc := model.NewAllocation(p)
	var ids []ConsumerID
	for k := 0; k < 4; k++ {
		id, err := br.AttachConsumer(9, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := range p.Flows {
		alloc.Rates[i] = 1e9
	}
	alloc.Consumers[9] = 4
	if err := br.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	s0 := br.EnactStats()
	alloc.Consumers[9] = 2
	if err := br.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	if s := br.EnactStats(); s.RouteIncrementals-s0.RouteIncrementals != 1 {
		t.Fatalf("RouteIncrementals delta = %d, want 1 (shrink must take the incremental path)",
			s.RouteIncrementals-s0.RouteIncrementals)
	}
	for k, id := range ids {
		adm, err := br.Admitted(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := k < 2; adm != want {
			t.Errorf("consumer %d admitted = %v, want %v (earliest attached survive shrink)", k, adm, want)
		}
	}
}

// routeTableFlows counts the flows a snapshot covers across its blocks.
func routeTableFlows(rt *routeTable) int {
	n := 0
	for _, blk := range rt.blocks {
		n += len(blk)
	}
	return n
}

// equalRouteTables asserts two snapshots are semantically identical:
// same flows, and per flow the same classes with the same counters,
// thinner, transform identity and the same consumers in the same order,
// each known by its tag and filter.
func equalRouteTables(t *testing.T, got, want *routeTable, op string) {
	t.Helper()
	if routeTableFlows(got) != routeTableFlows(want) {
		t.Fatalf("%s: flow count %d, want %d", op, routeTableFlows(got), routeTableFlows(want))
	}
	for i := 0; i < routeTableFlows(want); i++ {
		g, w := got.flowRoutes(model.FlowID(i)), want.flowRoutes(model.FlowID(i))
		if len(g) != len(w) {
			t.Fatalf("%s: flow %d has %d routes, want %d", op, i, len(g), len(w))
		}
		for k := range w {
			if g[k].counters != w[k].counters {
				t.Fatalf("%s: flow %d route %d counters differ", op, i, k)
			}
			if g[k].thinner != w[k].thinner {
				t.Fatalf("%s: flow %d route %d thinner differs", op, i, k)
			}
			if g[k].identity != w[k].identity {
				t.Fatalf("%s: flow %d route %d identity differs", op, i, k)
			}
			if got, want := names(g[k].handlers, g[k].filters), names(w[k].handlers, w[k].filters); !slices.Equal(got, want) {
				t.Fatalf("%s: flow %d route %d holds consumers %v, want %v", op, i, k, got, want)
			}
		}
	}
}

// TestEnactIncrementalMatchesFullRebuild is the incremental path's
// property test: after every random control operation, the published
// snapshot must be semantically identical to a from-scratch full build
// of the authoritative state, and every class's route must be the entry
// that snapshot carries for it. Consumers are attached into the three
// kinds of class of sideArrayCases.attach.
func TestEnactIncrementalMatchesFullRebuild(t *testing.T) {
	p := stressProblem(8)
	br, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var (
		live  []ConsumerID
		cases sideArrayCases
	)
	check := func(op string) {
		t.Helper()
		br.mu.Lock()
		want := br.buildRouteTableLocked()
		br.mu.Unlock()
		equalRouteTables(t, br.route.Load(), want, op)
		checkClassRoutes(t, br, op)
	}
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0:
			id, err := cases.attach(br, model.ClassID(rng.Intn(len(p.Classes))), label(step), 200)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
			check("attach")
		case 1:
			if len(live) == 0 {
				continue
			}
			k := rng.Intn(len(live))
			cases.detach(br, live[k])
			if err := br.DetachConsumer(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			check("detach")
		case 2:
			alloc := model.NewAllocation(p)
			for i := range alloc.Rates {
				alloc.Rates[i] = 10 + rng.Float64()*1000
			}
			for j := range alloc.Consumers {
				alloc.Consumers[j] = rng.Intn(6)
			}
			if err := br.ApplyAllocation(alloc); err != nil {
				t.Fatal(err)
			}
			check("apply")
		case 3:
			rate := 0.0
			if rng.Intn(2) == 1 {
				rate = 100 + rng.Float64()*1000
			}
			if err := br.SetClassRateCap(model.ClassID(rng.Intn(len(p.Classes))), rate); err != nil {
				t.Fatal(err)
			}
			check("ratecap")
		}
	}
	s := br.EnactStats()
	if s.RouteIncrementals == 0 || s.RouteNoops == 0 {
		t.Errorf("op mix did not exercise both republish outcomes: %+v", s)
	}
	cases.check(t)
}

// TestAllClassStatsParity: the single-snapshot read matches the
// per-class reads and reuses the caller's buffer.
func TestAllClassStatsParity(t *testing.T) {
	br, _ := enactedBroker(t, 8, 4)
	if _, err := br.AttachConsumer(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	buf := br.AllClassStats(nil)
	if len(buf) != len(br.Problem().Classes) {
		t.Fatalf("AllClassStats returned %d entries, want %d", len(buf), len(br.Problem().Classes))
	}
	for j := range buf {
		one, err := br.ClassStats(model.ClassID(j))
		if err != nil {
			t.Fatal(err)
		}
		if buf[j] != one {
			t.Errorf("class %d: AllClassStats %+v != ClassStats %+v", j, buf[j], one)
		}
	}
	again := br.AllClassStats(buf)
	if &again[0] != &buf[0] {
		t.Error("AllClassStats did not reuse the caller's buffer")
	}
}

// TestRelChangeZeroBaselines pins relChange at and around zero: equal
// values (including 0→0) score 0, and any move away from or to zero
// scores 1, so a 0→1 admission always crosses any threshold ≤ 1.
func TestRelChangeZeroBaselines(t *testing.T) {
	cases := []struct {
		prev, next, want float64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 0, 1},
		{0, -1, 1},
		{-1, 1, 2}, // sign crossings can exceed 1; thresholds ≤ 1 still trip
		{100, 100, 0},
	}
	for _, c := range cases {
		if got := relChange(c.prev, c.next); got != c.want {
			t.Errorf("relChange(%g, %g) = %g, want %g", c.prev, c.next, got, c.want)
		}
	}
}

// TestMaxRelChange: the shared threshold input is the worst change over
// rates and populations.
func TestMaxRelChange(t *testing.T) {
	prev := model.Allocation{Rates: []float64{100, 0}, Consumers: []int{4, 0}}
	next := model.Allocation{Rates: []float64{105, 0}, Consumers: []int{4, 0}}
	if got := maxRelChange(prev, next); got != 0.05/1.05 {
		t.Errorf("maxRelChange = %g, want %g", got, 0.05/1.05)
	}
	next.Consumers[1] = 1 // 0 → 1 dominates
	if got := maxRelChange(prev, next); got != 1 {
		t.Errorf("maxRelChange with 0→1 admission = %g, want 1", got)
	}
	if got := maxRelChange(prev, prev); got != 0 {
		t.Errorf("maxRelChange(self) = %g, want 0", got)
	}
}
