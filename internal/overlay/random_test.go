package overlay

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// TestRandomTopologyRefusesBadArguments: a NaN, ±Inf or negative
// capacity, alpha or beta panics with model.ErrInvalid naming the
// argument, where it used to build a "connected" overlay with no links
// (NaN capacity), infinite links (+Inf) or no Waxman extras (NaN alpha).
// A 0 still takes the default, with the same draws as passing it.
func TestRandomTopologyRefusesBadArguments(t *testing.T) {
	gen := map[string]func(v float64) *Topology{
		"capacity": func(v float64) *Topology { return RandomTopology(rand.New(rand.NewSource(1)), 50, 0.4, 0.3, v) },
		"alpha":    func(v float64) *Topology { return RandomTopology(rand.New(rand.NewSource(1)), 50, v, 0.3, 1e6) },
		"beta":     func(v float64) *Topology { return RandomTopology(rand.New(rand.NewSource(1)), 50, 0.4, v, 1e6) },
		"capMin":   func(v float64) *Topology { return RandomTopologyHetero(rand.New(rand.NewSource(1)), 50, 2, v, 1e6) },
		"capMax":   func(v float64) *Topology { return RandomTopologyHetero(rand.New(rand.NewSource(1)), 50, 2, 1e5, v) },
	}
	for name, build := range gen {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err, _ = p.(error)
						if err == nil {
							err = fmt.Errorf("panic %v", p)
						}
					}
				}()
				tp := build(v)
				return fmt.Errorf("built %d links", tp.LinkCount())
			}()
			if !errors.Is(err, model.ErrInvalid) || !strings.Contains(err.Error(), name+" ") {
				t.Errorf("%s = %v: %v, want a panic with model.ErrInvalid naming %s", name, v, err, name)
			}
		}
	}

	// The largest finite capMax is accepted and draws finite capacities:
	// exp(log(capMax)) overflows there.
	for _, l := range RandomTopologyHetero(rand.New(rand.NewSource(1)), 50, 2, 1e300, math.MaxFloat64).Links() {
		if math.IsInf(l.Capacity, 0) || !(l.Capacity > 0) {
			t.Fatalf("capMax = MaxFloat64 drew capacity %g", l.Capacity)
		}
	}

	links := func(tp *Topology) []TopoLink { return tp.Links() }
	rng := func() *rand.Rand { return rand.New(rand.NewSource(3)) }
	if !slices.Equal(links(RandomTopology(rng(), 50, 0, 0, 0)), links(RandomTopology(rng(), 50, 0.4, 0.3, 1e6))) {
		t.Error("RandomTopology: 0 arguments do not build the default overlay")
	}
	if !slices.Equal(links(RandomTopologyHetero(rng(), 50, 2, 0, 0)), links(RandomTopologyHetero(rng(), 50, 2, 1e3, 1e3))) {
		t.Error("RandomTopologyHetero: 0 capacities do not build the default overlay")
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
