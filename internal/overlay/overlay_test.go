package overlay

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

func TestBuildTreeMergesSharedPrefix(t *testing.T) {
	// Star: source at spoke 1; subscribers at spokes 2 and 3. Both paths
	// cross the hub; the 1->0 link must appear once.
	tp := Star(4, 100)
	tree, err := buildTree(tp, 1, []model.NodeID{2, 3})
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
	tree, err := buildTree(tp, 0, []model.NodeID{0})
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
		for k, fid := range l.FlowCost.Flows() {
			cost := l.FlowCost.Values()[k]
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

// TestBuildJSONPinned pins Build's pruned problem on the link_failure
// shape, byte for byte as JSON: node and link IDs, names, capacities and
// every cost record, an empty one omitted.
func TestBuildJSONPinned(t *testing.T) {
	const want = "ada25977c76e1fbe3ee0a55f190d1531aab30259f93c4019b5f2c6fd50bd86a9"
	tp, _, flows := linkFailureShape(rand.New(rand.NewSource(1)))
	p, err := Build(tp, 3000, flows)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("Build's problem JSON (%d bytes) hashes to %s, want %s", len(data), got, want)
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

// TestScratchFollowsItsTopology: a Scratch moved to another topology must
// not serve the first one's cached BFS, even when the two epochs agree —
// each topology counts its own mutations, and Line(5) and a five-node
// topology built with eight AddLink calls both stand at 8.
func TestScratchFollowsItsTopology(t *testing.T) {
	line := Line(5, 1)
	other := NewTopology(5)
	for _, l := range [][2]model.NodeID{{0, 4}, {4, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}} {
		if _, err := other.AddLink(l[0], l[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	if line.epoch != other.epoch {
		t.Fatalf("epochs %d and %d, want them equal", line.epoch, other.epoch)
	}
	sc := NewScratch(line)
	for k, tp := range []*Topology{line, other, Ring(9, 1), line, other} {
		want, err := buildTree(tp, 0, []model.NodeID{4})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tp.BuildTreeInto(sc, 0, []model.NodeID{4}, Tree{Source: -1})
		if err != nil || !got.equal(want) {
			t.Fatalf("topology %d: reused scratch gave %+v (err %v), a fresh one %+v", k, got, err, want)
		}
	}
	if got, err := buildTree(other, 0, []model.NodeID{4}); err != nil || !got.equal(Tree{Source: 0, Links: []int{0}, Nodes: []model.NodeID{0, 4}}) {
		t.Fatalf("0 -> 4 over the direct link: %+v, %v", got, err)
	}
}

// TestTraceMatchesExhaustiveBFS holds BuildTreeInto to the canonical BFS
// written out inside the tests (fullBFS, which shares no code with
// Scratch): every tree is the union of the full BFS's paths to the
// subscribers, every depth the full BFS's distance, and an unreachable
// subscriber or dead source gives ErrNoPath. The graphs are rings, stars
// and random ones salted with one-way and parallel links, and a 2,000-node
// RandomTopologyHetero; one scratch serves each graph while links and nodes
// fail and heal between its traces, and a source is often traced again so
// that its prefix is resumed. On the link_failure shape the trace must also
// visit fewer nodes than the one-sided BFS run until the subscriber is
// reached, itself a fraction of the full BFS.
func TestTraceMatchesExhaustiveBFS(t *testing.T) {
	cases := []struct {
		shape        string
		nodes, seeds int
		salt         bool
	}{
		{"ring", 24, 3, false},
		{"ring", 24, 3, true},
		{"star", 16, 3, true},
		{"random", 40, 3, true},
		{"random", 120, 3, true},
		{"random", 2000, 1, false},
	}
	var trees, depths, noPath, resumed, kept int
	for ci, c := range cases {
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			rng := rand.New(rand.NewSource(100*int64(ci) + seed))
			tp, _, _ := restoreWorkload(rng, c.shape, c.nodes, 1, c.salt)
			sc := NewScratch(tp)
			src := model.NodeID(0)
			var deadLinks []int
			var deadNodes []model.NodeID
			for round := 0; round < 300; round++ {
				switch op := rng.Intn(10); {
				case op < 2 && len(deadLinks) < tp.LinkCount()/8:
					if li := rng.Intn(tp.LinkCount()); tp.RemoveLink(li) == nil {
						deadLinks = append(deadLinks, li)
					}
				case op < 4 && len(deadLinks) > 0:
					k := rng.Intn(len(deadLinks))
					_ = tp.RestoreLink(deadLinks[k])
					deadLinks = slices.Delete(deadLinks, k, k+1)
				case op < 5 && len(deadNodes) < c.nodes/12:
					if b := model.NodeID(rng.Intn(c.nodes)); tp.RemoveNode(b) == nil {
						deadNodes = append(deadNodes, b)
					}
				case op < 6 && len(deadNodes) > 0:
					k := rng.Intn(len(deadNodes))
					_ = tp.RestoreNode(deadNodes[k])
					deadNodes = slices.Delete(deadNodes, k, k+1)
				}
				if rng.Intn(2) == 0 {
					src = model.NodeID(rng.Intn(c.nodes))
				}
				subs := make([]model.NodeID, 1+rng.Intn(4))
				for k := range subs {
					subs[k] = model.NodeID(rng.Intn(c.nodes))
				}

				// The expected tree: every subscriber's full-BFS path.
				prev, dist, _ := fullBFS(tp, src)
				want := Tree{Source: src, Nodes: []model.NodeID{src}}
				reachable := tp.NodeAlive(src)
				for _, b := range subs {
					if dist[b] < 0 {
						reachable = false
						break
					}
					for at := b; at != src && !slices.Contains(want.Nodes, at); {
						want.Nodes = append(want.Nodes, at)
						want.Links = append(want.Links, int(prev[at]))
						at = tp.links[prev[at]].From
					}
				}
				slices.Sort(want.Links)
				slices.Sort(want.Nodes)

				old := Tree{Source: -1}
				if rng.Intn(2) == 0 {
					old = want
				}
				if sc.cached(tp, src) {
					resumed++
				}
				got, changed, err := tp.BuildTreeInto(sc, src, subs, old)
				if !reachable {
					if !errors.Is(err, ErrNoPath) {
						t.Fatalf("%s seed %d round %d: %d -> %v unreachable, err = %v", c.shape, seed, round, src, subs, err)
					}
					noPath++
					continue
				}
				if err != nil || !got.equal(want) {
					t.Fatalf("%s seed %d round %d: %d -> %v: err=%v\n got %+v\nwant %+v", c.shape, seed, round, src, subs, err, got, want)
				}
				if changed == (old.Source == src) || !changed && !sameSlice(got.Links, old.Links) {
					t.Fatalf("%s seed %d round %d: changed=%v against old %+v", c.shape, seed, round, changed, old)
				}
				if !changed {
					kept++
				}
				for k, b := range subs {
					if sc.depth[k] != dist[b] {
						t.Fatalf("%s seed %d round %d: subscriber %d depth %d, full BFS %d", c.shape, seed, round, b, sc.depth[k], dist[b])
					}
				}
				trees++
				depths += len(subs)
			}
		}
	}
	t.Logf("%d trees and %d depths matched, %d ErrNoPath, %d traces resumed a prefix, %d kept the old tree", trees, depths, noPath, resumed, kept)
	if noPath == 0 || resumed == 0 || kept == 0 {
		t.Fatal("the streams never hit an unreachable subscriber, a resumed prefix or an unchanged tree")
	}

	// Vacuity: each subscriber of the link_failure shape traced from a
	// prefix that holds only its source.
	tp, _, flows := linkFailureShape(rand.New(rand.NewSource(1)))
	sc := NewScratch(tp)
	var traces, searched, lazy, full int
	for _, fs := range flows {
		prev, dist, order := fullBFS(tp, fs.Source)
		for _, cs := range fs.Classes {
			if cs.Node == fs.Source {
				continue
			}
			sc.bfsTopo = nil
			sc.bfs(tp, fs.Source)
			d, ok := sc.trace(tp, cs.Node)
			if !ok || d != dist[cs.Node] || sc.parent(cs.Node) != prev[cs.Node] {
				t.Fatalf("link_failure %d -> %d: trace %d, %v; full BFS %d", fs.Source, cs.Node, d, ok, dist[cs.Node])
			}
			searched += len(sc.fwd.queue)
			for _, e := range sc.back.seen {
				if e == sc.back.epoch {
					searched++
				}
			}
			lazy += slices.Index(order, cs.Node) + 1
			full += len(order)
			traces++
		}
	}
	t.Logf("link_failure, %d subscribers: the two-sided trace visited %d nodes, the BFS until each subscriber %d, the full BFS %d", traces, searched, lazy, full)
	if searched >= lazy || lazy >= full {
		t.Fatal("the two-sided trace did not visit fewer nodes than the one-sided BFS")
	}
}

// Star builds a hub-and-spoke topology with node 0 as the hub.
func Star(n int, capacity float64) *Topology {
	t := NewTopology(n)
	for i := 1; i < n; i++ {
		_, _, _ = t.AddBidirectional(0, model.NodeID(i), capacity)
	}
	return t
}

// buildTree routes one flow to subscribers on a fresh Scratch.
func buildTree(t *Topology, src model.NodeID, subscribers []model.NodeID) (Tree, error) {
	tree, _, err := t.BuildTreeInto(NewScratch(t), src, subscribers, Tree{Source: -1})
	return tree, err
}
