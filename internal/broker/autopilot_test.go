package broker

import (
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
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

// TestAutopilotLoop: the background loop runs cycles until stopped.
func TestAutopilotLoop(t *testing.T) {
	b, err := New(fanProblem(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAutopilot(b, AutopilotConfig{ItersPerCycle: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := b.AttachConsumer(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := a.Loop(time.Millisecond, stop, nil)
	deadline := time.After(5 * time.Second)
	for a.Stats().Cycles < 3 {
		select {
		case <-deadline:
			t.Fatal("autopilot loop made no progress")
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	<-done
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
	b, err := New(fanProblem(4), WithClock(tick))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewEnactMetrics(telemetry.NewRegistry())
	a, err := NewAutopilot(b, AutopilotConfig{Telemetry: tel})
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
		if _, sum := tel.CycleSeconds.CountSum(); math.Abs(sum-want.seconds) > 1e-12 {
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
