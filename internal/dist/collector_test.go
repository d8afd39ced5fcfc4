package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/utility"
)

// ruleProblem has two flows and two nodes; each node holds one class, of
// its own flow, so a round's utility is n0·U0(r0) + n1·U1(r1).
func ruleProblem() *model.Problem {
	return &model.Problem{
		Flows: []model.Flow{{ID: 0}, {ID: 1, Source: 1}},
		Classes: []model.Class{
			{ID: 0, Flow: 0, Node: 0, Utility: utility.NewLog(1)},
			{ID: 1, Flow: 1, Node: 1, Utility: utility.NewLog(3)},
		},
		Nodes: []model.Node{{ID: 0}, {ID: 1}},
	}
}

// ruleFeed hands a bare collector — no endpoint, no goroutine, no
// transport — the encoded messages its agents would send.
type ruleFeed struct {
	t *testing.T
	p *model.Problem
	c *collector
}

func newRuleFeed(t *testing.T, inOrder bool) *ruleFeed {
	p := ruleProblem()
	return &ruleFeed{t: t, p: p, c: newCollector(p, nil, len(p.Nodes), inOrder, nil, time.Now())}
}

func (f *ruleFeed) rate(round int, flow model.FlowID, rate float64, active bool) {
	f.t.Helper()
	msg := rateMsg{Round: round, Flow: flow, Rate: rate, Active: active}
	if !f.c.handle(transport.Message{From: flowName(flow), To: collectorName, Kind: rateKind, Payload: msg.appendBinary(nil)}) {
		f.t.Fatal("a rate stopped the collector")
	}
}

// report sends node's report for round, admitting pop consumers of the
// node's one class.
func (f *ruleFeed) report(round int, node model.NodeID, pop int) {
	f.t.Helper()
	msg := reportMsg{Round: round, Node: node, Populations: section[int]{{ID: int(node), Val: pop}}}
	if !f.c.handle(transport.Message{From: nodeName(node), To: collectorName, Kind: reportKind, Payload: msg.appendBinary(nil)}) {
		f.t.Fatal("a report stopped the collector")
	}
}

// round sends every input of one round: both rates, then both reports.
func (f *ruleFeed) round(round int, r0, r1 float64, n0, n1 int) {
	f.t.Helper()
	f.rate(round, 0, r0, true)
	f.rate(round, 1, r1, true)
	f.report(round, 0, n0)
	f.report(round, 1, n1)
}

// utility is what a round with these inputs is worth.
func (f *ruleFeed) utility(r0, r1 float64, n0, n1 int) float64 {
	return float64(n0)*f.p.Classes[0].Utility.Value(r0) + float64(n1)*f.p.Classes[1].Utility.Value(r1)
}

// finalized asserts which rounds have finalized since the last call, and
// at what utility.
func (f *ruleFeed) finalized(tag string, want ...RoundStats) {
	f.t.Helper()
	got := f.c.rounds(1, math.MaxInt)
	if len(got) != len(want) {
		f.t.Fatalf("%s: finalized %v, want %v", tag, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			f.t.Fatalf("%s: finalized %v, want %v", tag, got, want)
		}
	}
}

// pending asserts how many rounds the collector is still assembling.
func (f *ruleFeed) pending(tag string, want int) {
	f.t.Helper()
	if n := len(f.c.pending); n != want {
		f.t.Fatalf("%s: %d rounds pending, want %d", tag, n, want)
	}
}

// TestCollectorFinalizeRule pins which rounds the collector finalizes, and
// when, by feeding its handle step by hand: the one rule both schedules
// share, with what depends on the staleness bound.
func TestCollectorFinalizeRule(t *testing.T) {
	t.Run("K=0 finalizes in order", func(t *testing.T) {
		f := newRuleFeed(t, true)
		f.round(2, 2, 3, 1, 2)
		f.finalized("round 2 complete, round 1 not begun")
		f.rate(1, 0, 1, true)
		f.report(1, 0, 4)
		f.report(1, 1, 5)
		f.finalized("round 1 short of flow 1's rate")
		f.pending("rounds 1 and 2 assembling", 2)
		f.rate(1, 1, 1.5, true)
		f.finalized("round 1 complete",
			RoundStats{Round: 1, Utility: f.utility(1, 1.5, 4, 5)},
			RoundStats{Round: 2, Utility: f.utility(2, 3, 1, 2)})
		f.pending("both finalized", 0)
	})

	t.Run("K>0 frees the rounds below", func(t *testing.T) {
		f := newRuleFeed(t, false)
		f.rate(1, 0, 1, true)
		f.report(1, 0, 4)
		f.rate(2, 1, 2, true)
		f.rate(4, 0, 9, true)
		f.round(3, 2, 3, 1, 2)
		f.finalized("round 3 complete", RoundStats{Round: 3, Utility: f.utility(2, 3, 1, 2)})
		f.pending("rounds 1 and 2 freed, round 4 kept", 1)
		// What rounds 1 and 2 lacked arrives late: they stay absent.
		f.rate(1, 1, 1, true)
		f.report(1, 1, 5)
		f.rate(2, 0, 1, true)
		f.report(2, 0, 1)
		f.report(2, 1, 1)
		f.finalized("stragglers of freed rounds")
		f.pending("stragglers of freed rounds", 1)
		f.rate(4, 1, 4, true)
		f.report(4, 0, 3)
		f.report(4, 1, 3)
		f.finalized("round 4 complete", RoundStats{Round: 4, Utility: f.utility(9, 4, 3, 3)})
	})

	for _, inOrder := range []bool{true, false} {
		name := map[bool]string{true: "K=0", false: "K>0"}[inOrder]

		t.Run(name+" straggler updates the allocation only", func(t *testing.T) {
			f := newRuleFeed(t, inOrder)
			f.round(1, 1, 1, 1, 1)
			f.finalized("round 1", RoundStats{Round: 1, Utility: f.utility(1, 1, 1, 1)})
			// A resent duplicate, then stragglers carrying new values.
			f.rate(1, 0, 1, true)
			f.rate(1, 0, 5, true)
			f.report(1, 1, 7)
			f.finalized("resent round 1")
			f.pending("resent round 1", 0)
			if a := f.c.allocation(); a.Rates[0] != 5 || a.Rates[1] != 1 || a.Consumers[0] != 1 || a.Consumers[1] != 7 {
				t.Fatalf("latest allocation %v %v, want rates [5 1] consumers [1 7]", a.Rates, a.Consumers)
			}
			f.round(2, 2, 2, 2, 2)
			f.finalized("round 2", RoundStats{Round: 2, Utility: f.utility(2, 2, 2, 2)})
		})

		t.Run(name+" departure recounts pending rounds", func(t *testing.T) {
			f := newRuleFeed(t, inOrder)
			f.round(1, 1, 1, 1, 1)
			f.finalized("round 1", RoundStats{Round: 1, Utility: f.utility(1, 1, 1, 1)})
			// Round 2 holds flow 1's rate and both reports, and is short of
			// flow 0's rate alone.
			f.rate(2, 1, 2, true)
			f.report(2, 0, 2)
			f.report(2, 1, 2)
			f.finalized("round 2 short of flow 0")
			// Flow 1 departs after its round 2: one active flow is left,
			// and it is not the one round 2 has heard from.
			f.rate(3, 1, 0, false)
			f.finalized("flow 1 departed")
			f.pending("flow 1 departed", 2)
			f.rate(2, 0, 3, true)
			f.finalized("round 2 complete", RoundStats{Round: 2, Utility: f.utility(3, 0, 2, 0)})
			if a := f.c.allocation(); a.Rates[1] != 0 || a.Consumers[1] != 0 {
				t.Fatalf("departed flow 1 holds rate %v and %d consumers", a.Rates[1], a.Consumers[1])
			}
			f.rate(3, 0, 4, true)
			f.report(3, 0, 3)
			f.report(3, 1, 0)
			f.finalized("round 3 without flow 1", RoundStats{Round: 3, Utility: f.utility(4, 0, 3, 0)})
			f.pending("round 3 finalized", 0)
		})
	}
}
