package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/transport"
	"repro/internal/utility"
	"repro/internal/workload"
)

// heteroProblem is the multirate showcase workload.
func heteroProblem() *model.Problem {
	return workload.Heterogeneous()
}

// TestMultirateSyncMatchesEngine: the distributed multirate cluster must
// produce the multirate engine's utility trajectory round for round, on
// both the heterogeneous showcase and the paper's base workload.
func TestMultirateSyncMatchesEngine(t *testing.T) {
	for _, p := range []*model.Problem{heteroProblem(), workload.Base()} {
		coreCfg := core.Config{Adaptive: true}

		e, err := multirate.NewEngine(p.Clone(), coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 50
		var engineTrace []float64
		for i := 0; i < rounds; i++ {
			engineTrace = append(engineTrace, e.Step())
		}

		net := transport.NewMemory()
		cl, err := New(p, Config{Core: coreCfg, Multirate: true}, net)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := cl.Run(rounds, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		net.Close()

		if len(stats) != rounds {
			t.Fatalf("%s: got %d rounds, want %d", p.Name, len(stats), rounds)
		}
		for i, s := range stats {
			if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
				t.Fatalf("%s round %d: dist %g vs engine %g", p.Name, i+1, s.Utility, engineTrace[i])
			}
		}
	}
}

// TestMultirateAdmitHugeQuotientClampsToDemand is core's
// TestAdmitHugeQuotientClampsToDemand on the multirate paths: a delivery
// rate of 1e-12 at G = 1e-9 under a budget of 1e9 divides to 1e30
// consumers, past what an int holds, and both the multirate engine and a
// Multirate cluster must admit the class's demand of 5, not the -2^63
// amd64 makes of the out-of-range conversion.
func TestMultirateAdmitHugeQuotientClampsToDemand(t *testing.T) {
	problem := func() *model.Problem {
		return &model.Problem{
			Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 1e-12, RateMax: 1e-12}},
			Nodes: []model.Node{{ID: 0, Capacity: 1e9, FlowCost: map[model.FlowID]float64{0: 1}}},
			Classes: []model.Class{
				{ID: 0, Flow: 0, Node: 0, MaxConsumers: 5, CostPerConsumer: 1e-9, Utility: utility.NewLog(10)},
			},
		}
	}

	e, err := multirate.NewEngine(problem(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if got := e.Allocation().Consumers[0]; got != 5 {
		t.Errorf("multirate Engine.Step admitted %d consumers, want 5", got)
	}

	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(problem(), Config{Multirate: true}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(1, time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := cl.Allocation().Consumers[0]; got != 5 {
		t.Errorf("Multirate cluster admitted %d consumers, want 5", got)
	}
}

// TestMultirateNodeAgentSetFlowActive: a multirate node agent admits a
// departed flow's classes 0, delivers them at 0 and charges the node 0 for
// the flow, and admits them again once the flow rejoins.
func TestMultirateNodeAgentSetFlowActive(t *testing.T) {
	p := workload.Heterogeneous()
	net := transport.NewMemory()
	defer net.Close()
	cfg, err := Config{Multirate: true}.normalized(len(p.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	na := newNodeAgent(p, model.NewIndex(p), 0, cfg)
	_, ports := testGateway(t, net, hostName(0), map[string]string{nodeName(0): hostName(0), flowName(0): hostName(0)}, false)
	na.ep = ports[nodeName(0)]

	admitted := func() int {
		n := 0
		for _, e := range na.report.Populations {
			n += e.Val
		}
		return n
	}
	na.rates[0] = 100
	na.compute(1)
	if admitted() == 0 {
		t.Fatal("nothing admitted with the flow active")
	}
	if na.report.Used <= 0 {
		t.Fatalf("used = %g", na.report.Used)
	}

	na.setActive(0, false)
	na.compute(2)
	if n := admitted(); n != 0 {
		t.Errorf("departed flow still admitted %d consumers: %v", n, na.report.Populations)
	}
	for _, d := range na.report.Deliveries {
		if d.Val != 0 {
			t.Errorf("departed flow still delivered: %v", na.report.Deliveries)
		}
	}
	if na.report.Used != 0 {
		t.Errorf("used = %g with the only flow departed", na.report.Used)
	}

	na.setActive(0, true)
	na.rates[0] = 100
	na.compute(3)
	if admitted() == 0 {
		t.Error("rejoined flow not admitted")
	}
}

// TestMultirateStalenessConvergesUnderLoss runs the multirate agents at
// bounded staleness K=1 under 10% message loss and requires the tail of the
// finalized rounds to hold the multirate engine's band — the two extensions
// (asynchronous §3.5 + multirate §5) compose.
func TestMultirateStalenessConvergesUnderLoss(t *testing.T) {
	p := heteroProblem()

	ref, err := multirate.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(600).Utility

	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 7)
	net.SetDropExempt(ctrlHost)
	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Staleness: 1,
		resend:    2 * time.Millisecond,
		Multirate: true,
		ownHost:   flowName(0), // else the flow and its one node share a host, and no loss falls between them
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.Run(300, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds finalized")
	}
	if rel := tailMeanDeviation(stats, want, 8); rel > 0.02 {
		t.Errorf("converged utility deviates %.2f%% from the multirate engine's %.2f (%d rounds finalized)",
			rel*100, want, len(stats))
	}
	if net.NetStats().Dropped == 0 {
		t.Error("fault injection inactive: nothing was dropped")
	}
}

// TestMultirateSyncBeatsSingleRate sanity-checks that the distributed
// multirate mode realizes the multirate gain end to end.
func TestMultirateSyncBeatsSingleRate(t *testing.T) {
	p := heteroProblem()

	run := func(multirateMode bool) float64 {
		net := transport.NewMemory()
		defer net.Close()
		cl, err := New(p.Clone(), Config{
			Core:      core.Config{Adaptive: true},
			Multirate: multirateMode,
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		stats, err := cl.Run(120, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1].Utility
	}

	single := run(false)
	multi := run(true)
	if multi <= single*1.20 {
		t.Errorf("distributed multirate %.0f not >20%% above single-rate %.0f", multi, single)
	}
}
