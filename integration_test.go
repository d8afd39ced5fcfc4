package repro_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestSoakChurn drives the full stack through sustained workload churn:
// an engine warm-runs across repeated demand changes, capacity changes
// and flow departures/returns, with feasibility and recovery asserted
// after every event. This is the "runs all the time" deployment story of
// Section 2.1 compressed into one test.
func TestSoakChurn(t *testing.T) {
	p := workload.Base()
	e, err := core.NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2026))

	flowDown := -1 // the departed flow, or -1
	settle := func(tag string) float64 {
		res := e.Solve(600)
		if !res.Converged {
			t.Fatalf("%s: did not reconverge", tag)
		}
		// A departed flow carries rate 0, below the model's rate floor;
		// relax the floor for departed flows on a checking copy (their
		// zero rate contributes zero usage, which is exact).
		check := p.Clone()
		if flowDown >= 0 {
			check.Flows[flowDown].RateMin = 0
		}
		if err := model.CheckFeasible(check, model.NewIndex(check), res.Allocation, 1e-6); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return res.Utility
	}
	settle("initial")

	for event := 0; event < 25; event++ {
		switch rng.Intn(4) {
		case 0: // demand change on a random class
			j := model.ClassID(rng.Intn(len(p.Classes)))
			if err := e.SetClassDemand(j, rng.Intn(4000)); err != nil {
				t.Fatal(err)
			}
			settle("demand change")
		case 1: // capacity change on a random node
			b := model.NodeID(rng.Intn(len(p.Nodes)))
			factor := 0.5 + rng.Float64()*1.5
			if err := e.SetNodeCapacity(b, workload.NodeCapacity*factor); err != nil {
				t.Fatal(err)
			}
			settle("capacity change")
		case 2: // flow departure (at most one down at a time)
			if flowDown < 0 {
				flowDown = rng.Intn(len(p.Flows))
				e.SetFlowActive(model.FlowID(flowDown), false)
				settle("flow departure")
			}
		default: // flow return
			if flowDown >= 0 {
				e.SetFlowActive(model.FlowID(flowDown), true)
				flowDown = -1
				settle("flow return")
			}
		}
	}

	// Restore the original workload and verify the warm-started engine
	// lands where a cold engine lands.
	if flowDown >= 0 {
		e.SetFlowActive(model.FlowID(flowDown), true)
		flowDown = -1
	}
	for j := range p.Classes {
		base := workload.Base()
		if err := e.SetClassDemand(model.ClassID(j), base.Classes[j].MaxConsumers); err != nil {
			t.Fatal(err)
		}
	}
	for b := range p.Nodes {
		if err := e.SetNodeCapacity(model.NodeID(b), workload.NodeCapacity); err != nil {
			t.Fatal(err)
		}
	}
	final := settle("restored")

	cold, err := core.NewEngine(workload.Base(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Solve(600).Utility
	if rel := math.Abs(final-want) / want; rel > 0.01 {
		t.Errorf("after churn: %0.f deviates %.2f%% from cold-start %.0f", final, rel*100, want)
	}
}

// TestFullStackPipeline is the end-to-end "deployment" path through the
// public facade: distributed optimization over TCP, enactment in a broker
// with live producers, a re-optimization controller cycle, and a
// teardown.
func TestFullStackPipeline(t *testing.T) {
	p := repro.BaseWorkload()

	net := repro.NewTCPNetwork()
	defer net.Close()
	cluster, err := repro.NewCluster(p.Clone(), repro.ClusterConfig{
		Core: repro.Config{Adaptive: true},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Run(80, time.Minute); err != nil {
		t.Fatal(err)
	}
	alloc := cluster.Allocation()

	clock := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	b, err := repro.NewBroker(p, broker.WithClock(func() time.Time { return clock }))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for j, c := range p.Classes {
		want := alloc.Consumers[j]
		for k := 0; k < want; k++ {
			if _, err := b.AttachConsumer(model.ClassID(j), nil, func(repro.Message) { delivered++ }); err != nil {
				t.Fatal(err)
			}
		}
		_ = c
	}
	if err := b.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}

	producers := make([]*broker.Producer, len(p.Flows))
	for i := range p.Flows {
		producers[i], err = b.RegisterProducer(model.FlowID(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Publish 2 simulated seconds of traffic at the allocated rates.
	for tick := 0; tick < 20; tick++ {
		clock = clock.Add(100 * time.Millisecond)
		for i, pr := range producers {
			burst := int(alloc.Rates[i] / 10)
			for k := 0; k < burst; k++ {
				if err := pr.Publish(map[string]float64{"seq": float64(tick)}, ""); err != nil {
					t.Fatalf("flow %d throttled at its own allocated rate: %v", i, err)
				}
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no deliveries across the full stack")
	}

	// One autopilot cycle keeps the system consistent.
	ap, err := repro.NewBrokerAutopilot(b, broker.AutopilotConfig{
		Core: repro.Config{Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	if _, _, err := ap.Cycle(); err != nil {
		t.Fatal(err)
	}
}
