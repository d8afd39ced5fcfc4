package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestEngineSlotsFollowThePlan: the engine keeps state only for the
// constraints its plan lists, and its slot tables are that list. Over 240
// events of the seeded fail/heal sequence, a dozen Steps after each, the
// tables hold exactly the nodes and links, each on the shard, that a plan
// built from scratch lists after every ResetRouting (core.CheckPlanFresh),
// a free slot holds what a constraint no flow ever crossed holds (core.CheckIdleCaches),
// and the slot storage never outgrows the most constraints the plan has
// listed at once. The run covers priced links emptied by a delta, priced
// links that left the plan unnamed once their price decayed, and slots
// freed by one constraint and taken by another gaining its first flow; a
// long decay and a re-plan at its end have priced nodes leave unnamed too.
// Each of those leaves at the initial γ (the adaptive controller runs),
// which is why the engine can drop a node's γ with its slot: the delta that
// takes a node's last flow reseeds it, and with no flow its gap never
// changes sign.
func TestEngineSlotsFollowThePlan(t *testing.T) {
	const events = 240
	r := linkfailRouter(t, 20061)
	e, err := core.NewEngine(r.Problem(), core.WithWorkers(core.Config{Adaptive: true}, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var highNodes, highLinks int
	check := func(tag string) {
		t.Helper()
		if err := core.CheckIdleCaches(e); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if err := core.CheckPlanFresh(e); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		_, nodes, links := core.Listed(e)
		highNodes, highLinks = max(highNodes, nodes), max(highLinks, links)
		if slotNodes, slotLinks := core.Slots(e); slotNodes > highNodes || slotLinks > highLinks {
			t.Fatalf("%s: %d node and %d link slots, most ever listed %d and %d",
				tag, slotNodes, slotLinks, highNodes, highLinks)
		}
	}
	check("new engine")
	for i := 0; i < linkfailWarmup; i++ {
		e.Step()
	}
	var kinds linkfailKinds
	replan := func(tag string, d model.RoutingDelta) {
		t.Helper()
		lb := noteBefore(e, d)
		if err := e.ResetRouting(r.Problem(), d); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		kinds.noteAfter(e, d, lb)
		check(tag)
	}
	runLinkfailEvents(t, r, events, func(n int, ev linkfailEvent) {
		replan(fmt.Sprintf("event %d (%+v)", n, ev), r.TakeDelta())
		for i := 0; i < linkfailSteps; i++ {
			e.Step()
		}
	})
	// A node emptied while priced decays by about 1 − γ a Step: long enough
	// for the ones the last events emptied to reach 0 and leave unnamed.
	for i := 0; i < 8000; i++ {
		e.Step()
	}
	replan("after the decay", model.RoutingDelta{})
	t.Logf("%+v; at most %d nodes and %d links listed", kinds, highNodes, highLinks)
	if kinds.pricedLinkEmptied == 0 || kinds.linkDecayedOut == 0 || kinds.slotReused == 0 || kinds.nodeDecayedOut == 0 {
		t.Fatalf("the sequence misses an event kind: %+v", kinds)
	}
	if kinds.nodeLeftOffInit != 0 {
		t.Fatalf("%d nodes left the plan unnamed with γ off its initial value, which dropping the slot loses", kinds.nodeLeftOffInit)
	}
}
