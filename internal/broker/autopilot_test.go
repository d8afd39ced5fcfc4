package broker

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/utility"
	"repro/internal/workload"
)

// autopilotFixture: a 4-flow fan broker on a fake clock with an autopilot
// around it.
func autopilotFixture(t *testing.T) (*Broker, *Autopilot, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	b, err := New(fanProblem(4), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAutopilot(b, AutopilotConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return b, a, clock
}

// TestNewAutopilotRefusesBadNumbers: a NaN, infinite or negative
// EnactThreshold, or a negative ItersPerCycle, is refused with
// model.ErrInvalid naming the field. A NaN threshold used to be kept, and
// since no delta is >= NaN the autopilot never enacted; −1 silently meant
// the default. 0 still means the default.
func TestNewAutopilotRefusesBadNumbers(t *testing.T) {
	b, err := New(fanProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	for field, cfg := range map[string][]AutopilotConfig{
		"EnactThreshold": {{EnactThreshold: math.NaN()}, {EnactThreshold: math.Inf(1)}, {EnactThreshold: -1}},
		"ItersPerCycle":  {{ItersPerCycle: -3}},
	} {
		for _, c := range cfg {
			a, err := NewAutopilot(b, c)
			if !errors.Is(err, model.ErrInvalid) || !strings.Contains(err.Error(), field) {
				t.Errorf("%+v: NewAutopilot = %v, want model.ErrInvalid naming %s", c, err, field)
			}
			if a != nil {
				a.Close()
			}
		}
	}
	a, err := NewAutopilot(b, AutopilotConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.enactThreshold != 0.01 || a.itersPerCycle != 100 {
		t.Errorf("zero config became threshold %g, %d iterations; want 0.01 and 100", a.enactThreshold, a.itersPerCycle)
	}
}

// TestAutopilotEnactsDemand: a cycle picks up attached demand, solves,
// and enacts admissions through the broker; a cycle with unchanged
// demand skips enactment.
func TestAutopilotEnactsDemand(t *testing.T) {
	b, a, clock := autopilotFixture(t)
	var ids []ConsumerID
	for k := 0; k < 4; k++ {
		id, err := b.AttachConsumer(1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	clock.Advance(time.Second)
	alloc, enacted, err := a.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if !enacted {
		t.Fatal("first cycle with fresh demand did not enact")
	}
	if alloc.Consumers[1] != 4 {
		t.Errorf("solved admission for class 1 = %d, want 4 (capacity is ample)", alloc.Consumers[1])
	}
	cs, err := b.ClassStats(1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Admitted != alloc.Consumers[1] {
		t.Errorf("broker admitted %d, want enacted %d", cs.Admitted, alloc.Consumers[1])
	}

	// Steady state: nothing changed, the re-solve lands on the same
	// fixpoint and the cycle skips.
	clock.Advance(time.Second)
	_, enacted, err = a.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if enacted {
		t.Error("steady-state cycle enacted; want skip under threshold")
	}
	st := a.Stats()
	if st.Cycles != 2 || st.Enacted != 1 || st.Skipped != 1 {
		t.Errorf("stats = %+v, want 2 cycles / 1 enacted / 1 skipped", st)
	}
	if st.DemandConsumers != 4 {
		t.Errorf("observed demand = %d, want 4", st.DemandConsumers)
	}

	// Shrinking demand reverses class 1's direction: the cycle enacts
	// and the oscillation score turns positive.
	for _, id := range ids[1:] {
		if err := b.DetachConsumer(id); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second)
	_, enacted, err = a.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if !enacted {
		t.Fatal("demand-shrink cycle did not enact")
	}
	if st := a.Stats(); st.Oscillation <= 0 {
		t.Errorf("oscillation after direction reversal = %g, want > 0", st.Oscillation)
	}
}

// TestAutopilotOfferedRateCapsBound: the offered-rate estimate (with
// headroom) shrinks the autopilot's private RateMax toward actual load,
// never touching the broker's problem or dropping below RateMin.
func TestAutopilotOfferedRateCapsBound(t *testing.T) {
	b, a, clock := autopilotFixture(t)
	if _, err := b.AttachConsumer(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Offer ~100 msg/s on flow 0 for one fake-clock second. The broker
	// starts at RateMin=10, so most publishes throttle — offered-rate
	// estimation counts attempts (published + throttled), not grants.
	for k := 0; k < 100; k++ {
		clock.Advance(10 * time.Millisecond)
		_ = b.Publish(0, nil, "x")
	}
	if _, _, err := a.Cycle(); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	got := a.prob.Flows[0].RateMax
	a.mu.Unlock()
	if got >= 1e9 || got < 10 {
		t.Errorf("flow 0 effective RateMax = %g, want in [RateMin, 1e9) after offered ~100/s", got)
	}
	if want := 100 * 1.25; got > 2*want {
		t.Errorf("flow 0 effective RateMax = %g, want about %g", got, want)
	}
	if b.Problem().Flows[0].RateMax != 1e9 {
		t.Error("autopilot mutated the broker's shared problem")
	}
}

// TestAutopilotLoop: the background loop runs cycles on the base workload
// until stopped, and stops when told to.
func TestAutopilotLoop(t *testing.T) {
	b, err := New(workload.Base())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAutopilot(b, AutopilotConfig{Core: core.Config{Adaptive: true}, ItersPerCycle: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 10; i++ {
		if _, err := b.AttachConsumer(0, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := a.Loop(time.Millisecond, stop, nil)
	deadline := time.After(5 * time.Second)
	for a.Stats().Cycles < 3 {
		select {
		case <-deadline:
			t.Fatal("loop did not run 3 cycles in time")
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop")
	}
	if st := a.Stats(); st.Enacted == 0 {
		t.Errorf("loop stats = %+v, want at least one enacted cycle", st)
	}
}

// TestAutopilotUsesEnactPath: steady-state cycles must not republish
// route snapshots — the skip threshold plus the broker's delta path keep
// the data plane's snapshot stable while the loop spins.
func TestAutopilotUsesEnactPath(t *testing.T) {
	b, a, clock := autopilotFixture(t)
	if _, err := b.AttachConsumer(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if _, _, err := a.Cycle(); err != nil {
		t.Fatal(err)
	}
	before := b.route.Load()
	for k := 0; k < 5; k++ {
		clock.Advance(time.Second)
		if _, _, err := a.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	if b.route.Load() != before {
		t.Error("steady-state autopilot cycles republished the route snapshot")
	}
}

// TestAutopilotCycleOneClock: every timestamp of a cycle, its reported
// duration included, comes from the broker's injected clock. On a clock
// that advances 1 ms per reading an enacted cycle reads it three times —
// cycle start, ApplyAllocation, cycle end — so it lasts exactly 2 ms, and
// a skipped cycle exactly 1 ms, whatever the wall clock did meanwhile.
func TestAutopilotCycleOneClock(t *testing.T) {
	now := t0
	tick := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	reg := telemetry.NewRegistry()
	b, err := New(fanProblem(4), WithClock(tick), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAutopilot(b, AutopilotConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := b.AttachConsumer(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	rates, consumers := &a.enacted.Rates[0], &a.enacted.Consumers[0]
	for cycle, want := range []struct {
		enacted bool
		seconds float64
	}{{true, 0.002}, {false, 0.003}} {
		_, enacted, err := a.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if enacted != want.enacted {
			t.Fatalf("cycle %d enacted = %v, want %v", cycle, enacted, want.enacted)
		}
		if _, sum := scrapeOf(reg).histogram("lrgp_enact_cycle_seconds"); math.Abs(sum-want.seconds) > 1e-12 {
			t.Errorf("cycle %d: cumulative cycle seconds = %g, want %g on the injected clock", cycle, sum, want.seconds)
		}
	}
	// The enacted cycle recorded its allocation in place.
	if &a.enacted.Rates[0] != rates || &a.enacted.Consumers[0] != consumers {
		t.Error("an enacted cycle reallocated the autopilot's record of the enacted allocation")
	}
	if a.enacted.Consumers[1] != 1 {
		t.Errorf("recorded enacted n_1 = %d, want 1", a.enacted.Consumers[1])
	}
}

// TestAutopilotEndToEnd: the full loop on the base workload — attach
// consumers, run a cycle, and verify the broker enforces the optimizer's
// decisions.
func TestAutopilotEndToEnd(t *testing.T) {
	clock := newFakeClock()
	p := workload.Base()
	b, err := New(p, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}

	// Demand: 100 consumers for the top class (4, rank 1 flow 0 node 0)
	// and 50 for class 18 (rank 100).
	for i := 0; i < 100; i++ {
		if _, err := b.AttachConsumer(4, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := b.AttachConsumer(18, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	ap, err := NewAutopilot(b, AutopilotConfig{Core: core.Config{Adaptive: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	alloc, enacted, err := ap.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if !enacted {
		t.Fatal("first cycle did not enact")
	}
	// Demand sync: n^max became the attached counts — in the problem the
	// engine solves, not in the broker's.
	solved := ap.Engine().Problem().Classes
	if solved[4].MaxConsumers != 100 || solved[18].MaxConsumers != 50 {
		t.Errorf("demand sync: nmax = %d/%d", solved[4].MaxConsumers, solved[18].MaxConsumers)
	}
	if base := workload.Base().Classes; p.Classes[4].MaxConsumers != base[4].MaxConsumers || p.Classes[18].MaxConsumers != base[18].MaxConsumers {
		t.Error("demand sync wrote into the broker's shared problem")
	}
	// With tiny demand relative to capacity everyone is admitted at high
	// rates.
	cs4, _ := b.ClassStats(4)
	cs18, _ := b.ClassStats(18)
	if cs4.Admitted != 100 || cs18.Admitted != 50 {
		t.Errorf("admitted = %d/%d, want 100/50", cs4.Admitted, cs18.Admitted)
	}
	if alloc.Rates[0] <= 0 {
		t.Errorf("rate[0] = %g", alloc.Rates[0])
	}

	// A second cycle with identical demand converges to (nearly) the
	// same allocation and is typically below the enactment threshold.
	_, enacted2, err := ap.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	st := ap.Stats()
	if st.Cycles != 2 {
		t.Errorf("cycles = %d", st.Cycles)
	}
	if enacted2 && st.Skipped != 0 {
		t.Errorf("inconsistent: enacted2=%v skipped=%d", enacted2, st.Skipped)
	}
}

// TestAutopilotAdmitsNewDemandAtFixpoint: with capacity to spare the
// engine reaches an exact fixpoint and stops re-running admission, so
// demand that arrives afterwards is admitted only if the cycle tells the
// engine the class changed (Engine.SetClassDemand) instead of writing the
// new n^max into the problem behind its back.
func TestAutopilotAdmitsNewDemandAtFixpoint(t *testing.T) {
	p := workload.Base()
	for b := range p.Nodes {
		p.Nodes[b].Capacity *= 1000
	}
	for l := range p.Links {
		p.Links[l].Capacity *= 1000
	}
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for j := range p.Classes {
		for k := 0; k < 2; k++ {
			if _, err := b.AttachConsumer(model.ClassID(j), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	ap, err := NewAutopilot(b, AutopilotConfig{Core: core.Config{Adaptive: true}, ItersPerCycle: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	if _, _, err := ap.Cycle(); err != nil {
		t.Fatal(err)
	}
	if cs, _ := b.ClassStats(0); cs.Admitted != 2 {
		t.Fatalf("first cycle admitted %d of 2 in class 0", cs.Admitted)
	}
	for k := 0; k < 3; k++ {
		if _, err := b.AttachConsumer(0, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ap.Cycle(); err != nil {
		t.Fatal(err)
	}
	if cs, _ := b.ClassStats(0); cs.Admitted != 5 {
		t.Errorf("after 3 more attached, class 0 admits %d of %d", cs.Admitted, cs.Attached)
	}
}

// TestAutopilotAutoscaleScenario replays the six phases of
// examples/autoscale — demand arrives, holds, triples on a saturated node,
// a node loses half its capacity, a burst of high-value consumers attaches
// and leaves — and pins which cycles enacted and what each left admitted.
func TestAutopilotAutoscaleScenario(t *testing.T) {
	class := func(id model.ClassID, flow model.FlowID, node model.NodeID, weight float64) model.Class {
		return model.Class{ID: id, Name: "c", Flow: flow, Node: node, MaxConsumers: 1,
			CostPerConsumer: 19, Utility: utility.NewLog(weight)}
	}
	p := &model.Problem{
		Name: "autoscale",
		Flows: []model.Flow{
			{ID: 0, Name: "orders", Source: 0, RateMin: 10, RateMax: 500},
			{ID: 1, Name: "telemetry", Source: 1, RateMin: 10, RateMax: 500},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "east", Capacity: 400_000, FlowCost: map[model.FlowID]float64{0: 3, 1: 3}},
			{ID: 1, Name: "west", Capacity: 400_000, FlowCost: map[model.FlowID]float64{0: 3, 1: 3}},
		},
		// orders-east, orders-west, telemetry-east, telemetry-west.
		Classes: []model.Class{class(0, 0, 0, 30), class(1, 0, 1, 30), class(2, 1, 0, 5), class(3, 1, 1, 5)},
	}
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := NewAutopilot(b, AutopilotConfig{
		Core:           core.Config{Adaptive: true},
		EnactThreshold: 0.02,
		ItersPerCycle:  150,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	attach := func(class model.ClassID, n int) []ConsumerID {
		ids := make([]ConsumerID, n)
		for i := range ids {
			if ids[i], err = b.AttachConsumer(class, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return ids
	}
	var extra []ConsumerID
	for _, ph := range []struct {
		name     string
		change   func()
		enacted  bool
		admitted [4]int
		attached [4]int
	}{
		{"initial demand", func() { attach(0, 300); attach(1, 200); attach(2, 1000); attach(3, 1500) },
			true, [4]int{300, 200, 1000, 1376}, [4]int{300, 200, 1000, 1500}},
		{"steady state", func() {},
			false, [4]int{300, 200, 1000, 1376}, [4]int{300, 200, 1000, 1500}},
		{"telemetry-west demand x3", func() { attach(3, 3000) },
			false, [4]int{300, 200, 1000, 1376}, [4]int{300, 200, 1000, 4500}},
		{"east capacity halved", func() {
			if err := ap.Engine().SetNodeCapacity(0, p.Nodes[0].Capacity/2); err != nil {
				t.Fatal(err)
			}
		}, true, [4]int{300, 200, 305, 1606}, [4]int{300, 200, 1000, 4500}},
		{"200 extra orders-east attach", func() { extra = attach(0, 200) },
			true, [4]int{500, 200, 40, 1700}, [4]int{500, 200, 1000, 4500}},
		{"the 200 extras detach again", func() {
			for _, id := range extra {
				if err := b.DetachConsumer(id); err != nil {
					t.Fatal(err)
				}
			}
		}, true, [4]int{300, 200, 412, 1678}, [4]int{300, 200, 1000, 4500}},
	} {
		ph.change()
		_, enacted, err := ap.Cycle()
		if err != nil {
			t.Fatalf("%s: %v", ph.name, err)
		}
		if enacted != ph.enacted {
			t.Errorf("%s: enacted = %v, want %v", ph.name, enacted, ph.enacted)
		}
		for j := range p.Classes {
			cs, _ := b.ClassStats(model.ClassID(j))
			if cs.Admitted != ph.admitted[j] || cs.Attached != ph.attached[j] {
				t.Errorf("%s: class %d = %d/%d, want %d/%d", ph.name, j, cs.Admitted, cs.Attached, ph.admitted[j], ph.attached[j])
			}
		}
	}
	if st := ap.Stats(); st.Cycles != 6 || st.Skipped != 2 {
		t.Errorf("stats = %+v, want 6 cycles, 2 skipped", st)
	}
}

func TestRelChange(t *testing.T) {
	tests := []struct {
		prev, next, want float64
	}{
		{0, 0, 0},
		{10, 10, 0},
		{10, 11, 0.1 / 1.1}, // |1|/11
		{0, 5, 1},
	}
	for _, tt := range tests {
		got := relChange(tt.prev, tt.next)
		if diff := got - tt.want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("relChange(%g,%g) = %g, want %g", tt.prev, tt.next, got, tt.want)
		}
	}
}
