package overlay

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

func TestAddLinkValidation(t *testing.T) {
	tp := NewTopology(3)
	if _, err := tp.AddLink(0, 3, 10); !errors.Is(err, ErrBadLink) {
		t.Errorf("out-of-range: %v", err)
	}
	if _, err := tp.AddLink(1, 1, 10); !errors.Is(err, ErrBadLink) {
		t.Errorf("self-loop: %v", err)
	}
	if _, err := tp.AddLink(0, 1, 0); !errors.Is(err, ErrBadLink) {
		t.Errorf("zero capacity: %v", err)
	}
	id, err := tp.AddLink(0, 1, 10)
	if err != nil || id != 0 {
		t.Errorf("first link: id=%d err=%v", id, err)
	}
}

// TestNaNRefusedBeforeRouting: a link capacity, node capacity or per-flow
// cost that is NaN, -Inf, zero or negative is refused with ErrBadLink or
// ErrBadBuild before anything is added or routed (NaN passes a `<= 0`
// test, and used to be routed and then refused by model.Validate with an
// error outside ErrBadBuild). Node 3 is dead, so routing first would
// surface as ErrNoPath instead.
func TestNaNRefusedBeforeRouting(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(-1), 0, -1} {
		tp := Line(4, 100)
		if err := tp.RemoveNode(3); err != nil {
			t.Fatal(err)
		}
		epoch, links := tp.epoch, tp.LinkCount()
		withFlow := func(edit func(*FlowSpec)) []FlowSpec {
			flows := buildSpec()
			edit(&flows[1])
			return flows
		}
		routerCaps := func(b int) []float64 {
			caps := uniformCaps(4, 100)
			caps[b] = v
			return caps
		}
		cases := []struct {
			name string
			want error
			call func() error
		}{
			{"AddLink capacity", ErrBadLink, func() error { _, err := tp.AddLink(0, 2, v); return err }},
			{"AddBidirectional capacity", ErrBadLink, func() error { _, _, err := tp.AddBidirectional(0, 2, v); return err }},
			{"NewRouter node capacity", ErrBadBuild, func() error { _, err := NewRouter(tp, routerCaps(1), buildSpec()); return err }},
			{"NewRouter link cost", ErrBadBuild, func() error {
				_, err := NewRouter(tp, uniformCaps(4, 100), withFlow(func(fs *FlowSpec) { fs.LinkCost = v }))
				return err
			}},
			{"NewRouter node cost", ErrBadBuild, func() error {
				_, err := NewRouter(tp, uniformCaps(4, 100), withFlow(func(fs *FlowSpec) { fs.NodeCost = v }))
				return err
			}},
			{"Build node capacity", ErrBadBuild, func() error { _, err := Build(tp, v, buildSpec()); return err }},
			{"Build link cost", ErrBadBuild, func() error {
				_, err := Build(tp, 100, withFlow(func(fs *FlowSpec) { fs.LinkCost = v }))
				return err
			}},
		}
		for _, c := range cases {
			if err := c.call(); !errors.Is(err, c.want) {
				t.Errorf("%s %g: err = %v, want %v", c.name, v, err, c.want)
			}
			if tp.epoch != epoch || tp.LinkCount() != links {
				t.Fatalf("%s %g: refused call changed the topology (epoch %d -> %d, links %d -> %d)", c.name, v, epoch, tp.epoch, links, tp.LinkCount())
			}
		}
	}
}

func TestShortestPathLine(t *testing.T) {
	tp := Line(4, 100)
	path, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	links := tp.Links()
	at := model.NodeID(0)
	for _, li := range path {
		if links[li].From != at {
			t.Fatalf("discontinuous path at link %d", li)
		}
		at = links[li].To
	}
	if at != 3 {
		t.Fatalf("path ends at %d, want 3", at)
	}
}

func TestShortestPathRingPicksShortSide(t *testing.T) {
	tp := Ring(6, 100)
	path, err := tp.ShortestPath(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Around the ring the short way is 1 hop (5->0 reversed: 0->5).
	if len(path) != 1 {
		t.Errorf("path length = %d, want 1 (direct ring link)", len(path))
	}
}

func TestShortestPathSameNode(t *testing.T) {
	tp := Line(3, 10)
	path, err := tp.ShortestPath(1, 1)
	if err != nil || len(path) != 0 {
		t.Errorf("path = %v, err = %v", path, err)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	tp := NewTopology(3)
	_, _ = tp.AddLink(0, 1, 10) // node 2 unreachable
	if _, err := tp.ShortestPath(0, 2); !errors.Is(err, ErrNoPath) {
		t.Errorf("error = %v, want ErrNoPath", err)
	}
	if _, err := tp.ShortestPath(0, 9); !errors.Is(err, ErrNoPath) {
		t.Errorf("out-of-range error = %v, want ErrNoPath", err)
	}
}

func TestShortestPathDirectionality(t *testing.T) {
	tp := NewTopology(2)
	_, _ = tp.AddLink(0, 1, 10)
	if _, err := tp.ShortestPath(1, 0); !errors.Is(err, ErrNoPath) {
		t.Errorf("reverse path over unidirectional link: %v", err)
	}
}

func TestBuildTreeMergesSharedPrefix(t *testing.T) {
	// Star: source at spoke 1; subscribers at spokes 2 and 3. Both paths
	// cross the hub; the 1->0 link must appear once.
	tp := Star(4, 100)
	tree, err := tp.BuildTree(1, []model.NodeID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Links) != 3 { // 1->0, 0->2, 0->3
		t.Errorf("tree links = %d, want 3", len(tree.Links))
	}
	if len(tree.Nodes) != 4 {
		t.Errorf("tree nodes = %v, want all 4", tree.Nodes)
	}
}

func TestBuildTreeSubscriberAtSource(t *testing.T) {
	tp := Line(3, 100)
	tree, err := tp.BuildTree(0, []model.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Links) != 0 || len(tree.Nodes) != 1 {
		t.Errorf("tree = %+v, want source only", tree)
	}
}

func buildSpec() []FlowSpec {
	return []FlowSpec{
		{
			Name: "f0", Source: 0, RateMin: 10, RateMax: 1000,
			LinkCost: 1, NodeCost: 3,
			Classes: []ClassSpec{
				{Name: "c0", Node: 2, MaxConsumers: 100, CostPerConsumer: 19, Utility: utility.NewLog(20)},
				{Name: "c1", Node: 3, MaxConsumers: 50, CostPerConsumer: 19, Utility: utility.NewLog(5)},
			},
		},
		{
			Name: "f1", Source: 3, RateMin: 10, RateMax: 1000,
			LinkCost: 2, NodeCost: 3,
			Classes: []ClassSpec{
				{Name: "c2", Node: 1, MaxConsumers: 200, CostPerConsumer: 19, Utility: utility.NewLog(40)},
			},
		},
	}
}

func TestBuildProblem(t *testing.T) {
	tp := Line(4, 5000)
	p, err := Build(tp, 9e5, buildSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Validate(p); err != nil {
		t.Fatalf("built problem invalid: %v", err)
	}
	ix := model.NewIndex(p)

	// Flow 0 tree: 0->1->2, 0->1->2->3 merged = nodes {0,1,2,3}.
	if got := len(ix.NodesByFlow(0)); got != 4 {
		t.Errorf("flow 0 reaches %d nodes, want 4", got)
	}
	if got := len(ix.LinksByFlow(0)); got != 3 {
		t.Errorf("flow 0 uses %d links, want 3", got)
	}
	// Flow 1 tree: 3->2->1 = nodes {1,2,3}, 2 links.
	if got := len(ix.NodesByFlow(1)); got != 3 {
		t.Errorf("flow 1 reaches %d nodes, want 3", got)
	}
	if got := len(ix.LinksByFlow(1)); got != 2 {
		t.Errorf("flow 1 uses %d links, want 2", got)
	}
	// Unused links were pruned: line(4) has 6 directed links; flow 0 uses
	// 3 forward, flow 1 uses 2 backward; 5 total remain.
	if got := len(p.Links); got != 5 {
		t.Errorf("links after pruning = %d, want 5", got)
	}
	// Link costs follow the specs.
	for _, l := range p.Links {
		for fid, cost := range l.FlowCost {
			want := 1.0
			if fid == 1 {
				want = 2.0
			}
			if cost != want {
				t.Errorf("link %d flow %d cost %g, want %g", l.ID, fid, cost, want)
			}
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	tp := Line(3, 100)
	if _, err := Build(tp, 0, buildSpec()); !errors.Is(err, ErrBadBuild) {
		t.Errorf("zero capacity: %v", err)
	}
	if _, err := Build(tp, 100, nil); !errors.Is(err, ErrBadBuild) {
		t.Errorf("no flows: %v", err)
	}
	bad := buildSpec()
	bad[0].NodeCost = 0
	if _, err := Build(tp, 100, bad); !errors.Is(err, ErrBadBuild) {
		t.Errorf("zero node cost: %v", err)
	}
	// Unreachable subscriber.
	disconnected := NewTopology(4)
	if _, err := Build(disconnected, 100, buildSpec()); !errors.Is(err, ErrNoPath) {
		t.Errorf("unreachable: %v", err)
	}
}

func TestBuiltProblemOptimizes(t *testing.T) {
	// End-to-end: an overlay-derived problem runs through LRGP and
	// produces a feasible allocation that respects the link constraints.
	tp := Ring(5, 800)
	specs := []FlowSpec{
		{
			Name: "news", Source: 0, RateMin: 10, RateMax: 1000,
			LinkCost: 1, NodeCost: 3,
			Classes: []ClassSpec{
				{Name: "a", Node: 2, MaxConsumers: 2000, CostPerConsumer: 19, Utility: utility.NewLog(20)},
				{Name: "b", Node: 3, MaxConsumers: 1000, CostPerConsumer: 19, Utility: utility.NewLog(80)},
			},
		},
		{
			Name: "quotes", Source: 1, RateMin: 10, RateMax: 1000,
			LinkCost: 1, NodeCost: 3,
			Classes: []ClassSpec{
				{Name: "c", Node: 4, MaxConsumers: 1500, CostPerConsumer: 19, Utility: utility.NewLog(50)},
			},
		},
	}
	p, err := Build(tp, 9e5, specs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(2000)
	if res.Utility <= 0 {
		t.Fatalf("utility = %g", res.Utility)
	}
	ix := e.Index()
	for _, l := range p.Links {
		if used := model.LinkUsage(p, ix, res.Allocation, l.ID); used > l.Capacity*1.05 {
			t.Errorf("link %d usage %g exceeds capacity %g by >5%%", l.ID, used, l.Capacity)
		}
	}
}
