package overlay

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

// randomRouterWorkload builds a random heterogeneous topology and a flow
// population with subscribers spread over it.
func randomRouterWorkload(rng *rand.Rand, nodes, nFlows, subsPerFlow int) (*Topology, []float64, []FlowSpec) {
	tp := RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = 5e4 + rng.Float64()*1e5
	}
	flows := make([]FlowSpec, nFlows)
	for fi := range flows {
		fs := FlowSpec{
			Name:     "f" + string(rune('a'+fi%26)) + string(rune('0'+fi/26)),
			Source:   model.NodeID(rng.Intn(nodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < subsPerFlow; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name:            "c",
				Node:            model.NodeID(rng.Intn(nodes)),
				MaxConsumers:    10 + rng.Intn(50),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

// sameSlice reports whether two slices share identity (same backing
// array and length) — the no-spurious-reroute guarantee.
func sameSlice[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// checkRouterInvariants verifies that every Router tree equals a
// from-scratch BuildTree over the mutated topology, and that the problem
// coefficients and reverse indexes mirror the trees exactly.
func checkRouterInvariants(t *testing.T, r *Router) {
	t.Helper()
	p := r.Problem()
	var subs []model.NodeID
	for fi := range p.Flows {
		subs = subs[:0]
		off := r.classOff[fi]
		for k, cs := range r.flows[fi].Classes {
			if !r.pruned[off+k] {
				subs = append(subs, cs.Node)
			}
		}
		want, err := r.Topology().BuildTree(r.flows[fi].Source, subs)
		if err != nil {
			t.Fatalf("from-scratch route of flow %d failed: %v", fi, err)
		}
		got := r.Tree(model.FlowID(fi))
		if !got.equal(want) {
			t.Fatalf("flow %d tree diverged from from-scratch BuildTree:\n got %+v\nwant %+v", fi, got, want)
		}
		// Coefficients mirror the tree.
		for _, li := range got.Links {
			if p.Links[li].FlowCost[model.FlowID(fi)] != r.flows[fi].LinkCost {
				t.Fatalf("flow %d link %d missing/incorrect cost", fi, li)
			}
		}
		for _, b := range got.Nodes {
			if p.Nodes[b].FlowCost[model.FlowID(fi)] != r.flows[fi].NodeCost {
				t.Fatalf("flow %d node %d missing/incorrect cost", fi, b)
			}
		}
	}
	// No stray coefficients or index entries beyond the trees.
	nLink, nNode := 0, 0
	for li := range p.Links {
		nLink += len(p.Links[li].FlowCost)
		if len(p.Links[li].FlowCost) != len(r.FlowsThroughLink(li)) {
			t.Fatalf("link %d: %d coefficients vs %d indexed flows", li, len(p.Links[li].FlowCost), len(r.FlowsThroughLink(li)))
		}
	}
	for b := range p.Nodes {
		nNode += len(p.Nodes[b].FlowCost)
		if len(p.Nodes[b].FlowCost) != len(r.FlowsThroughNode(model.NodeID(b))) {
			t.Fatalf("node %d: %d coefficients vs %d indexed flows", b, len(p.Nodes[b].FlowCost), len(r.FlowsThroughNode(model.NodeID(b))))
		}
	}
	wantLink, wantNode := 0, 0
	for fi := range p.Flows {
		wantLink += len(r.Tree(model.FlowID(fi)).Links)
		wantNode += len(r.Tree(model.FlowID(fi)).Nodes)
	}
	if nLink != wantLink || nNode != wantNode {
		t.Fatalf("coefficient totals (links %d, nodes %d) != tree totals (%d, %d)", nLink, nNode, wantLink, wantNode)
	}
}

// expectIndexEqual compares every accessor of got against a freshly built
// index over the same problem.
func expectIndexEqual(t *testing.T, p *model.Problem, got *model.Index) {
	t.Helper()
	want := model.NewIndex(p)
	for i := range p.Flows {
		fid := model.FlowID(i)
		if !equalIDs(got.NodesByFlow(fid), want.NodesByFlow(fid)) {
			t.Fatalf("flow %d NodesByFlow: got %v want %v", i, got.NodesByFlow(fid), want.NodesByFlow(fid))
		}
		if !equalIDs(got.LinksByFlow(fid), want.LinksByFlow(fid)) {
			t.Fatalf("flow %d LinksByFlow: got %v want %v", i, got.LinksByFlow(fid), want.LinksByFlow(fid))
		}
		if !equalFloats(got.NodeCostsByFlow(fid), want.NodeCostsByFlow(fid)) {
			t.Fatalf("flow %d NodeCostsByFlow mismatch", i)
		}
		if !equalFloats(got.LinkCostsByFlow(fid), want.LinkCostsByFlow(fid)) {
			t.Fatalf("flow %d LinkCostsByFlow mismatch", i)
		}
		g, w := got.ClassesByFlowNode(fid), want.ClassesByFlowNode(fid)
		if len(g) != len(w) {
			t.Fatalf("flow %d ClassesByFlowNode length %d != %d", i, len(g), len(w))
		}
		for k := range g {
			if !equalIDs(g[k], w[k]) {
				t.Fatalf("flow %d ClassesByFlowNode[%d]: got %v want %v", i, k, g[k], w[k])
			}
		}
	}
	for b := range p.Nodes {
		bid := model.NodeID(b)
		if !equalIDs(got.FlowsByNode(bid), want.FlowsByNode(bid)) {
			t.Fatalf("node %d FlowsByNode: got %v want %v", b, got.FlowsByNode(bid), want.FlowsByNode(bid))
		}
		if !equalFloats(got.FlowCostsByNode(bid), want.FlowCostsByNode(bid)) {
			t.Fatalf("node %d FlowCostsByNode mismatch", b)
		}
	}
	for l := range p.Links {
		lid := model.LinkID(l)
		if !equalIDs(got.FlowsByLink(lid), want.FlowsByLink(lid)) {
			t.Fatalf("link %d FlowsByLink: got %v want %v", l, got.FlowsByLink(lid), want.FlowsByLink(lid))
		}
		if !equalFloats(got.FlowCostsByLink(lid), want.FlowCostsByLink(lid)) {
			t.Fatalf("link %d FlowCostsByLink mismatch", l)
		}
	}
}

func equalIDs[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool { return equalIDs(a, b) }

// TestRouterRepairProperty drives a Router through a random sequence of
// link kills and restores, checking after every event that (1) all trees
// match from-scratch BuildTree on the mutated topology, (2) flows not
// indexed to a killed link keep their tree slices verbatim, (3) repair
// stats report exactly the indexed flows, and (4) RefreshRouting keeps a
// live index equal to a fresh NewIndex.
func TestRouterRepairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tp, caps, flows := randomRouterWorkload(rng, 60, 8, 3)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	checkRouterInvariants(t, r)
	ix := model.NewIndex(r.Problem())
	r.TakeDelta() // construction accumulates nothing, but start clean

	var dead []int
	for ev := 0; ev < 60; ev++ {
		restore := len(dead) > 0 && rng.Intn(3) == 0
		if restore {
			k := rng.Intn(len(dead))
			li := dead[k]
			st, err := r.RestoreLink(li)
			if err != nil {
				t.Fatalf("event %d: restore link %d: %v", ev, li, err)
			}
			if st.Rerouted > st.Affected || st.Affected > len(flows) {
				t.Fatalf("event %d: restore rerouted %d of %d candidates of %d flows", ev, st.Rerouted, st.Affected, len(flows))
			}
			dead = append(dead[:k], dead[k+1:]...)
		} else {
			li := rng.Intn(tp.LinkCount())
			if !tp.LinkAlive(li) {
				continue
			}
			indexed := append([]int32(nil), r.FlowsThroughLink(li)...)
			before := make([]Tree, len(flows))
			for fi := range flows {
				before[fi] = r.Tree(model.FlowID(fi))
			}
			st, err := r.RepairLink(li)
			if errors.Is(err, ErrNoPath) {
				// Atomic failure: link back up, nothing moved.
				if !tp.LinkAlive(li) {
					t.Fatalf("event %d: failed repair left link %d dead", ev, li)
				}
				for fi := range flows {
					cur := r.Tree(model.FlowID(fi))
					if !sameSlice(before[fi].Links, cur.Links) || !sameSlice(before[fi].Nodes, cur.Nodes) {
						t.Fatalf("event %d: failed repair mutated flow %d tree", ev, fi)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("event %d: repair link %d: %v", ev, li, err)
			}
			if st.Affected != len(indexed) {
				t.Fatalf("event %d: repair affected %d flows, reverse index had %d", ev, st.Affected, len(indexed))
			}
			touched := make(map[int]bool, len(indexed))
			for _, fi := range indexed {
				touched[int(fi)] = true
			}
			for fi := range flows {
				cur := r.Tree(model.FlowID(fi))
				if touched[fi] {
					continue
				}
				if !sameSlice(before[fi].Links, cur.Links) || !sameSlice(before[fi].Nodes, cur.Nodes) {
					t.Fatalf("event %d: unaffected flow %d was re-routed (spurious)", ev, fi)
				}
			}
			dead = append(dead, li)
		}
		checkRouterInvariants(t, r)
		if err := ix.RefreshRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatalf("event %d: RefreshRouting: %v", ev, err)
		}
		expectIndexEqual(t, r.Problem(), ix)
	}
}

// TestRouterRepairNodeProperty exercises node kills and restores.
func TestRouterRepairNodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tp, caps, flows := randomRouterWorkload(rng, 50, 6, 2)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	ix := model.NewIndex(r.Problem())

	// Nodes hosting a source or subscriber are not repairable; collect the
	// rest as candidates.
	anchored := make([]bool, tp.NodeCount())
	for _, fs := range flows {
		anchored[fs.Source] = true
		for _, cs := range fs.Classes {
			anchored[cs.Node] = true
		}
	}
	var deadNode model.NodeID = -1
	events := 0
	for ev := 0; ev < 200 && events < 30; ev++ {
		if deadNode >= 0 {
			st, err := r.RestoreNode(deadNode)
			if err != nil {
				t.Fatalf("restore node %d: %v", deadNode, err)
			}
			if st.Kind != "node-restore" {
				t.Fatalf("stats kind = %q", st.Kind)
			}
			deadNode = -1
		} else {
			b := model.NodeID(rng.Intn(tp.NodeCount()))
			if anchored[b] || !tp.NodeAlive(b) {
				continue
			}
			indexed := len(r.FlowsThroughNode(b))
			st, err := r.RepairNode(b)
			if errors.Is(err, ErrNoPath) {
				if !tp.NodeAlive(b) {
					t.Fatalf("failed node repair left node %d dead", b)
				}
				continue
			}
			if err != nil {
				t.Fatalf("repair node %d: %v", b, err)
			}
			if st.Affected != indexed {
				t.Fatalf("node repair affected %d, index had %d", st.Affected, indexed)
			}
			deadNode = b
		}
		events++
		checkRouterInvariants(t, r)
		if err := ix.RefreshRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatalf("RefreshRouting: %v", err)
		}
		expectIndexEqual(t, r.Problem(), ix)
	}
	if events < 10 {
		t.Fatalf("only %d churn events exercised", events)
	}
}

// TestBuildTreeErrNoPathAfterNodeRemoval covers the satellite error path:
// removing a relay node disconnects a subscriber, and BuildTree reports
// which subscriber with ErrNoPath.
func TestBuildTreeErrNoPathAfterNodeRemoval(t *testing.T) {
	tp := Line(4, 1000)
	if err := tp.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	_, err := tp.BuildTree(0, []model.NodeID{3})
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if !strings.Contains(err.Error(), "subscriber 3") {
		t.Fatalf("error %q does not name the unreachable subscriber", err)
	}

	// Build surfaces it with the flow context.
	flows := []FlowSpec{{
		Name: "f0", Source: 0, RateMin: 1, RateMax: 10, LinkCost: 1, NodeCost: 1,
		Classes: []ClassSpec{{Name: "c0", Node: 3, MaxConsumers: 5, CostPerConsumer: 1, Utility: utility.NewLog(1)}},
	}}
	_, err = Build(tp, 1000, flows)
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("Build err = %v, want ErrNoPath", err)
	}
	if !strings.Contains(err.Error(), "flow 0 (f0)") || !strings.Contains(err.Error(), "subscriber 3") {
		t.Fatalf("Build error %q lacks flow/subscriber context", err)
	}
}

// TestRepairNodeRejectsAnchors: a node hosting a flow source or an
// unpruned subscriber cannot be repaired away; the failure is atomic.
func TestRepairNodeRejectsAnchors(t *testing.T) {
	tp := Line(4, 1000)
	caps := uniformCaps(4, 1000)
	flows := buildSpec()
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RepairNode(0); err == nil || !strings.Contains(err.Error(), "sourced there") {
		t.Fatalf("repairing source node: err = %v", err)
	}
	if !tp.NodeAlive(0) {
		t.Fatal("failed repair left source node dead")
	}
	if _, err := r.RepairNode(2); err == nil || !strings.Contains(err.Error(), "subscribes there") {
		t.Fatalf("repairing subscriber node: err = %v", err)
	}
	if !tp.NodeAlive(2) {
		t.Fatal("failed repair left subscriber node dead")
	}
}

// TestTwoStageReSolveMatchesCold: the re-entrant two-stage solve on the
// prune scenario prunes the same classes and reaches the same stage-2
// utility as the cold TwoStageSolve, without rebuilding problem or engine.
func TestTwoStageReSolveMatchesCold(t *testing.T) {
	iters := 4000
	cfg := core.Config{}

	topo, capacity, flows := pruneScenario()
	cold, err := TwoStageSolve(topo, capacity, flows, cfg, iters)
	if err != nil {
		t.Fatal(err)
	}

	topo2, _, _ := pruneScenario()
	r, err := NewRouter(topo2, uniformCaps(topo2.NodeCount(), capacity), flows)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(r.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	warm, err := TwoStageReSolve(r, eng, iters)
	if err != nil {
		t.Fatal(err)
	}

	if warm.PrunedClasses != cold.PrunedClasses {
		t.Fatalf("pruned %d classes, cold path pruned %d", warm.PrunedClasses, cold.PrunedClasses)
	}
	if warm.PrunedClasses == 0 {
		t.Fatal("scenario pruned nothing; test is vacuous")
	}
	// Same final objective, within convergence tolerance (both stage-2
	// problems describe identical routing; the warm path just starts from
	// stage-1 prices).
	rel := (warm.Stage2.Result.Utility - cold.Stage2.Result.Utility) / cold.Stage2.Result.Utility
	if rel < -1e-3 || rel > 1e-3 {
		t.Fatalf("stage-2 utility %g vs cold %g (rel %g)", warm.Stage2.Result.Utility, cold.Stage2.Result.Utility, rel)
	}
	if warm.UtilityGain <= 0 {
		t.Fatalf("pruning gained %g utility, want > 0", warm.UtilityGain)
	}
	// The hot flow's tree shrank to the near class only.
	if got := len(r.Tree(0).Nodes); got != 2 {
		t.Fatalf("hot tree spans %d nodes after prune, want 2", got)
	}
}

// retraceAll is the restore path RestoreLink/RestoreNode used before the
// candidate filter — re-trace every flow, keep what comes back identical —
// kept as the oracle the filter is checked against.
func (r *Router) retraceAll(st *RepairStats) error {
	all := make([]int32, len(r.flows))
	for fi := range all {
		all[fi] = int32(fi)
	}
	return r.rerouteAffected(st, all)
}

// healLink / healNode restore an element on r: through the candidate
// filter, or with oracle set through the full sweep.
func healLink(r *Router, li int, oracle bool) (RepairStats, error) {
	if !oracle {
		return r.RestoreLink(li)
	}
	st := RepairStats{Kind: "link-restore", Element: li}
	if err := r.topo.RestoreLink(li); err != nil {
		return st, err
	}
	return st, r.retraceAll(&st)
}

func healNode(r *Router, b model.NodeID, oracle bool) (RepairStats, error) {
	if !oracle {
		return r.RestoreNode(b)
	}
	st := RepairStats{Kind: "node-restore", Element: int(b)}
	if err := r.topo.RestoreNode(b); err != nil {
		return st, err
	}
	return st, r.retraceAll(&st)
}

// restoreWorkload builds one differential-test instance from rng: the
// named topology, optionally salted with one-way and parallel links, and
// flows whose sources come from a small pool so several share one.
func restoreWorkload(rng *rand.Rand, shape string, nodes, nFlows int, salt bool) (*Topology, []float64, []FlowSpec) {
	var tp *Topology
	switch shape {
	case "line":
		tp = Line(nodes, 1e6)
	case "ring":
		tp = Ring(nodes, 1e6)
	case "star":
		tp = Star(nodes, 1e6)
	default:
		tp = RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	}
	if salt {
		for k := 0; k < nodes; k++ {
			a, b := model.NodeID(rng.Intn(nodes)), model.NodeID(rng.Intn(nodes))
			if a == b {
				continue
			}
			_, _ = tp.AddLink(a, b, 1e6) // one-way shortcut
			if k%3 == 0 {
				_, _ = tp.AddLink(a, b, 1e6) // and its parallel twin
			}
		}
	}
	pool := make([]model.NodeID, 1+nFlows/2)
	for k := range pool {
		pool[k] = model.NodeID(rng.Intn(nodes))
	}
	flows := make([]FlowSpec, nFlows)
	for fi := range flows {
		fs := FlowSpec{
			Name: "f", Source: pool[rng.Intn(len(pool))],
			RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2,
		}
		for s := 0; s < 3; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name: "c", Node: model.NodeID(rng.Intn(nodes)),
				MaxConsumers: 10, CostPerConsumer: 5, Utility: utility.NewLog(5),
			})
		}
		flows[fi] = fs
	}
	return tp, uniformCaps(nodes, 1e6), flows
}

// TestRestoreFilterMatchesFullSweep is the differential proof of the
// restore candidate filter: two Routers over identical inputs take the
// same seeded stream of overlapping link and node failures, prunes, and
// heals in an order unrelated to the failures'; one heals through
// RestoreLink/RestoreNode, the other through the full sweep. After every
// event their trees, slice sharing, deltas and reverse indexes must agree
// exactly.
func TestRestoreFilterMatchesFullSweep(t *testing.T) {
	cases := []struct {
		shape         string
		nodes, nFlows int
		salt          bool
	}{
		{"line", 14, 6, false},
		{"line", 14, 6, true},
		{"ring", 16, 8, false},
		{"ring", 16, 8, true},
		{"star", 12, 6, false},
		{"star", 12, 6, true},
		{"random", 40, 12, false},
		{"random", 40, 12, true},
		{"random", 150, 30, true},
	}
	var heals, healCands, healFlows, healRerouted, deadEndpointHeals int
	for ci, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			var rs [2]*Router // [0] heals through the filter, [1] is the oracle
			for k := range rs {
				tp, caps, flows := restoreWorkload(rand.New(rand.NewSource(100*int64(ci)+seed)), c.shape, c.nodes, c.nFlows, c.salt)
				r, err := NewRouter(tp, caps, flows)
				if err != nil {
					t.Fatalf("%s seed %d: NewRouter: %v", c.shape, seed, err)
				}
				rs[k] = r
			}
			rng := rand.New(rand.NewSource(seed))
			tp := rs[0].topo
			var deadLinks []int
			var deadNodes []model.NodeID
			for ev := 0; ev < 250; ev++ {
				var before [2][]Tree
				for k, r := range rs {
					before[k] = slices.Clone(r.trees)
				}
				// One event, applied to both Routers.
				var apply func(r *Router, oracle bool) (RepairStats, error)
				heal := false
				failed := func() {} // records the element once both Routers took the failure
				switch op := rng.Intn(10); {
				case op < 3: // fail a link, sometimes one beside a dead node
					li := rng.Intn(tp.LinkCount())
					if len(deadNodes) > 0 && rng.Intn(2) == 0 {
						b := deadNodes[rng.Intn(len(deadNodes))]
						if adj := append(slices.Clone(tp.out[b]), tp.in[b]...); len(adj) > 0 {
							li = int(adj[rng.Intn(len(adj))])
						}
					}
					apply = func(r *Router, _ bool) (RepairStats, error) { return r.RepairLink(li) }
					failed = func() { deadLinks = append(deadLinks, li) }
				case op < 5: // fail a node
					b := model.NodeID(rng.Intn(tp.NodeCount()))
					apply = func(r *Router, _ bool) (RepairStats, error) { return r.RepairNode(b) }
					failed = func() { deadNodes = append(deadNodes, b) }
				case op < 6: // prune one class
					consumers := make([]int, len(rs[0].prob.Classes))
					for j := range consumers {
						consumers[j] = 1
					}
					consumers[rng.Intn(len(consumers))] = 0
					apply = func(r *Router, _ bool) (RepairStats, error) {
						_, err := r.PruneDeadSubscribers(consumers)
						return RepairStats{}, err
					}
				case op < 8 && len(deadLinks) > 0: // heal a link, any order
					k := rng.Intn(len(deadLinks))
					li := deadLinks[k]
					deadLinks = slices.Delete(deadLinks, k, k+1)
					apply = func(r *Router, oracle bool) (RepairStats, error) { return healLink(r, li, oracle) }
					heal = true
					if l := tp.links[li]; !tp.NodeAlive(l.From) || !tp.NodeAlive(l.To) {
						deadEndpointHeals++
					}
				case len(deadNodes) > 0: // heal a node
					k := rng.Intn(len(deadNodes))
					b := deadNodes[k]
					deadNodes = slices.Delete(deadNodes, k, k+1)
					apply = func(r *Router, oracle bool) (RepairStats, error) { return healNode(r, b, oracle) }
					heal = true
				default:
					continue
				}
				st, err := apply(rs[0], false)
				ost, oerr := apply(rs[1], true)
				if (err == nil) != (oerr == nil) {
					t.Fatalf("%s seed %d event %d: filter err %v, oracle err %v", c.shape, seed, ev, err, oerr)
				}
				if err != nil {
					// Only a failure can be refused (already dead, an anchor, a
					// bridge), and a refusal changes nothing.
					if heal {
						t.Fatalf("%s seed %d event %d: heal refused: %v", c.shape, seed, ev, err)
					}
					for k, r := range rs {
						for fi := range r.trees {
							if !sameSlice(before[k][fi].Links, r.trees[fi].Links) {
								t.Fatalf("%s seed %d event %d: refused event moved flow %d", c.shape, seed, ev, fi)
							}
						}
					}
					continue
				}
				failed()
				if heal {
					heals++
					healCands += st.Affected
					healFlows += ost.Affected
					healRerouted += st.Rerouted
					if st.Rerouted != ost.Rerouted || st.Rerouted > st.Affected || st.Affected > c.nFlows || st.BFSRuns > st.Affected+2 {
						t.Fatalf("%s seed %d event %d: heal stats %+v vs oracle %+v", c.shape, seed, ev, st, ost)
					}
				}
				for fi := range rs[0].trees {
					got, want := rs[0].trees[fi], rs[1].trees[fi]
					if !got.equal(want) {
						t.Fatalf("%s seed %d event %d (%s %d): flow %d tree\n got %+v\nwant %+v", c.shape, seed, ev, st.Kind, st.Element, fi, got, want)
					}
					kept := sameSlice(before[0][fi].Links, got.Links) && sameSlice(before[0][fi].Nodes, got.Nodes)
					okept := sameSlice(before[1][fi].Links, want.Links) && sameSlice(before[1][fi].Nodes, want.Nodes)
					if kept != okept {
						t.Fatalf("%s seed %d event %d: flow %d slices kept=%v, oracle kept=%v", c.shape, seed, ev, fi, kept, okept)
					}
				}
				d, od := rs[0].TakeDelta(), rs[1].TakeDelta()
				if !slices.Equal(d.Flows, od.Flows) || !slices.Equal(d.Nodes, od.Nodes) || !slices.Equal(d.Links, od.Links) {
					t.Fatalf("%s seed %d event %d: delta %+v, oracle %+v", c.shape, seed, ev, d, od)
				}
				for li := range rs[0].flowsByLink {
					if !slices.Equal(rs[0].flowsByLink[li], rs[1].flowsByLink[li]) {
						t.Fatalf("%s seed %d event %d: link %d index %v, oracle %v", c.shape, seed, ev, li, rs[0].flowsByLink[li], rs[1].flowsByLink[li])
					}
				}
				for b := range rs[0].flowsByNode {
					if !slices.Equal(rs[0].flowsByNode[b], rs[1].flowsByNode[b]) {
						t.Fatalf("%s seed %d event %d: node %d index %v, oracle %v", c.shape, seed, ev, b, rs[0].flowsByNode[b], rs[1].flowsByNode[b])
					}
				}
			}
		}
	}
	t.Logf("%d heals: %d candidates of %d flow re-traces the sweep made, %d rerouted, %d heals beside a dead endpoint",
		heals, healCands, healFlows, healRerouted, deadEndpointHeals)
	if healRerouted == 0 || deadEndpointHeals == 0 || healCands >= healFlows {
		t.Fatal("streams never exercised a rerouting heal, a dead-endpoint heal, or the filter skipped nothing")
	}
}

// TestRestoreSweepsLeaveBFSCacheAlone: the distance sweeps share a Scratch
// with the cached canonical BFS. They must not overwrite it (a trace after
// the sweeps still reads the right parents without a new BFS) and must not
// pass for it (a trace from the swept node still runs its own BFS).
func TestRestoreSweepsLeaveBFSCacheAlone(t *testing.T) {
	tp := Ring(8, 1e6)
	sc := NewScratch(tp)
	subs := []model.NodeID{2, 6}
	want, _, err := tp.BuildTreeInto(sc, 0, subs, Tree{Source: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.bfsValid || sc.bfsSrc != 0 || sc.bfsTopo != tp.epoch {
		t.Fatalf("trace cached no BFS: valid=%v src=%d", sc.bfsValid, sc.bfsSrc)
	}
	bfsRuns := sc.epoch

	toward := slices.Clone(sc.sweep(tp, 3, true))
	from := slices.Clone(sc.sweep(tp, 3, false))
	for b := 0; b < 8; b++ {
		ring := int32(min((b-3+8)%8, (3-b+8)%8))
		if toward[b] != ring || from[b] != ring {
			t.Fatalf("node %d: distance toward 3 = %d, from 3 = %d, want %d", b, toward[b], from[b], ring)
		}
	}
	if !sc.bfsValid || sc.bfsSrc != 0 || sc.bfsTopo != tp.epoch || sc.epoch != bfsRuns {
		t.Fatalf("sweeps disturbed the cache identity: valid=%v src=%d epoch %d -> %d", sc.bfsValid, sc.bfsSrc, bfsRuns, sc.epoch)
	}
	// Served from the cache, and still the same tree.
	got, changed, err := tp.BuildTreeInto(sc, 0, subs, want)
	if err != nil || changed || sc.epoch != bfsRuns {
		t.Fatalf("trace after sweeps: changed=%v err=%v bfs epoch %d -> %d", changed, err, bfsRuns, sc.epoch)
	}
	if !sameSlice(got.Links, want.Links) {
		t.Fatal("unchanged tree lost its slices")
	}
	// A trace from the swept node is not served by the sweeps.
	fresh, err := tp.BuildTree(3, subs)
	if err != nil {
		t.Fatal(err)
	}
	viaSc, _, err := tp.BuildTreeInto(sc, 3, subs, Tree{Source: -1})
	if err != nil || sc.epoch != bfsRuns+1 || !viaSc.equal(fresh) {
		t.Fatalf("trace from the swept node: err=%v bfs epoch %d -> %d, tree %+v want %+v", err, bfsRuns, sc.epoch, viaSc, fresh)
	}

	// Directionality and dead elements: on a one-way line 0->1->2 node 2 is
	// reachable from 0 but not toward it, and a dead relay cuts both.
	ow := NewTopology(3)
	_, _ = ow.AddLink(0, 1, 1)
	_, _ = ow.AddLink(1, 2, 1)
	osc := NewScratch(ow)
	if d := osc.sweep(ow, 0, false); d[2] != 2 {
		t.Fatalf("forward distance 0->2 = %d, want 2", d[2])
	}
	if d := osc.sweep(ow, 0, true); d[2] != unreachable {
		t.Fatalf("distance 2->0 = %d, want unreachable", d[2])
	}
	if d := osc.sweep(ow, 2, true); d[0] != 2 {
		t.Fatalf("distance 0->2 by reverse sweep = %d, want 2", d[0])
	}
	_ = ow.RemoveNode(1)
	if d := osc.sweep(ow, 0, false); d[2] != unreachable {
		t.Fatalf("distance past a dead relay = %d, want unreachable", d[2])
	}
	if d := osc.sweep(ow, 1, false); d[1] != unreachable {
		t.Fatalf("a dead root reached itself: %d", d[1])
	}
}

// adjacencyLinks returns, sorted, every link ID an adjacency table files.
func adjacencyLinks(adj [][]int32) []int32 {
	var ids []int32
	for _, row := range adj {
		ids = append(ids, row...)
	}
	slices.Sort(ids)
	return ids
}

// TestReverseAdjacencyInStep: forward and reverse adjacency describe one
// link set — every link once in out[From] and once in in[To] — through
// interleaved AddLink / Remove* / Restore*.
func TestReverseAdjacencyInStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tp := NewTopology(9)
	check := func() {
		t.Helper()
		all := make([]int32, tp.LinkCount())
		for li := range all {
			all[li] = int32(li)
		}
		if out, in := adjacencyLinks(tp.out), adjacencyLinks(tp.in); !slices.Equal(out, all) || !slices.Equal(in, all) {
			t.Fatalf("adjacency out of step with %d links:\nout %v\n in %v", len(all), out, in)
		}
		for li, l := range tp.links {
			if !slices.Contains(tp.out[l.From], int32(li)) || !slices.Contains(tp.in[l.To], int32(li)) {
				t.Fatalf("link %d (%d->%d) filed under the wrong node", li, l.From, l.To)
			}
		}
	}
	for step := 0; step < 200; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			_, _ = tp.AddLink(model.NodeID(rng.Intn(9)), model.NodeID(rng.Intn(9)), 1)
		case 2:
			if n := tp.LinkCount(); n > 0 {
				if li := rng.Intn(n); tp.RemoveLink(li) != nil {
					_ = tp.RestoreLink(li)
				}
			}
		default:
			if b := model.NodeID(rng.Intn(9)); tp.RemoveNode(b) != nil {
				_ = tp.RestoreNode(b)
			}
		}
		check()
	}
	if tp.LinkCount() < 20 {
		t.Fatalf("only %d links added", tp.LinkCount())
	}
}

// TestRouterRejectsGrownTopology: AddLink under a live Router grows the
// graph past the Router's per-link state; every repair, restore and prune
// must then refuse with ErrBadBuild and leave topology and routing alone
// (routing over the new link used to index out of range in commitTree).
func TestRouterRejectsGrownTopology(t *testing.T) {
	tp := Ring(4, 1000)
	r, err := NewRouter(tp, uniformCaps(4, 1000), buildSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RepairLink(0); err != nil { // something to heal later
		t.Fatal(err)
	}
	r.TakeDelta()
	before := slices.Clone(r.trees)
	// A shortcut the next repair would route over.
	if _, err := tp.AddLink(0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	epoch := tp.epoch
	calls := map[string]func() error{
		"RepairLink":  func() error { _, err := r.RepairLink(2); return err },
		"RepairNode":  func() error { _, err := r.RepairNode(1); return err },
		"RestoreLink": func() error { _, err := r.RestoreLink(0); return err },
		"RestoreNode": func() error { _, err := r.RestoreNode(1); return err },
		"PruneDeadSubscribers": func() error {
			_, err := r.PruneDeadSubscribers(make([]int, len(r.prob.Classes)))
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrBadBuild) {
			t.Fatalf("%s on a grown topology: err = %v, want ErrBadBuild", name, err)
		}
	}
	if tp.epoch != epoch || tp.LinkAlive(0) || !tp.LinkAlive(2) || !tp.NodeAlive(1) {
		t.Fatal("a refused call mutated the topology")
	}
	for fi := range before {
		if !sameSlice(before[fi].Links, r.trees[fi].Links) || !sameSlice(before[fi].Nodes, r.trees[fi].Nodes) {
			t.Fatalf("a refused call re-routed flow %d", fi)
		}
	}
	if d := r.TakeDelta(); len(d.Flows)+len(d.Nodes)+len(d.Links) != 0 || slices.Contains(r.pruned, true) {
		t.Fatalf("a refused call left a delta %+v or pruned a class", d)
	}
}
