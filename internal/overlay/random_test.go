package overlay

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

func TestRandomTopologyConnected(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		topo := RandomTopology(rng, n, 0.4, 0.3, 1e6)
		if topo.NodeCount() != n {
			t.Fatalf("seed %d: nodes = %d, want %d", seed, topo.NodeCount(), n)
		}
		// Spanning-tree construction guarantees every pair is reachable.
		sc := NewScratch(topo)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if _, _, err := topo.BuildTreeInto(sc, model.NodeID(a), []model.NodeID{model.NodeID(b)}, Tree{Source: -1}); err != nil {
					t.Fatalf("seed %d: no path %d -> %d: %v", seed, a, b, err)
				}
			}
		}
	}
}

func TestRandomTopologyDeterministic(t *testing.T) {
	a := RandomTopology(rand.New(rand.NewSource(7)), 12, 0.4, 0.3, 100)
	b := RandomTopology(rand.New(rand.NewSource(7)), 12, 0.4, 0.3, 100)
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, la[i], lb[i])
		}
	}
}

func TestRandomTopologyDefaults(t *testing.T) {
	topo := RandomTopology(rand.New(rand.NewSource(1)), 0, 0, 0, 0)
	if topo.NodeCount() != 1 {
		t.Errorf("degenerate topology nodes = %d", topo.NodeCount())
	}
}

// TestRandomTopologyEndToEnd routes random flows over random topologies
// and optimizes, as a broad integration sweep of overlay + core.
func TestRandomTopologyEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		n := 5 + rng.Intn(8)
		topo := RandomTopology(rng, n, 0.4, 0.3, 1e6)
		var flows []FlowSpec
		for fi := 0; fi < 3; fi++ {
			fs := FlowSpec{
				Name: "f", Source: model.NodeID(rng.Intn(n)),
				RateMin: 10, RateMax: 1000, LinkCost: 1, NodeCost: 3,
			}
			for c := 0; c < 1+rng.Intn(3); c++ {
				fs.Classes = append(fs.Classes, ClassSpec{
					Name: "c", Node: model.NodeID(rng.Intn(n)),
					MaxConsumers: 100 + rng.Intn(1000), CostPerConsumer: 19,
					Utility: utility.NewLog(1 + rng.Float64()*99),
				})
			}
			flows = append(flows, fs)
		}
		p, err := Build(topo, 5e5, flows)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e, err := core.NewEngine(p, core.Config{Adaptive: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := e.Solve(300)
		ix := e.Index()
		if err := model.CheckFeasible(p, ix, res.Allocation, 1e-6); err != nil {
			// Transient link overload is legal mid-convergence but the
			// end state on an uncongested random topology should be
			// feasible; report it.
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}
