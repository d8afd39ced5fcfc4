package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/overlay"
)

// requireViewsByTheRule holds every flow's armed path view to its index path
// filtered by core.Armed: the armed nodes and links on the path, each with
// its position on it, in path order.
func requireViewsByTheRule(t *testing.T, tag string, e *core.Engine) {
	t.Helper()
	armedNodes, armedLinks := core.Armed(e)
	ix := e.Index()
	filter := func(path []int32, armed []int32) [][2]int32 {
		var out [][2]int32
		for k, id := range path {
			if _, ok := slices.BinarySearch(armed, id); ok {
				out = append(out, [2]int32{id, int32(k)})
			}
		}
		return out
	}
	for i := range e.Problem().Flows {
		fid := model.FlowID(i)
		var nodePath, linkPath []int32
		for _, b := range ix.NodesByFlow(fid) {
			nodePath = append(nodePath, int32(b))
		}
		for _, l := range ix.LinksByFlow(fid) {
			linkPath = append(linkPath, int32(l))
		}
		gotNodes, gotLinks := core.PathView(e, fid)
		if want := filter(nodePath, armedNodes); !slices.Equal(gotNodes, want) {
			t.Fatalf("%s: flow %d views nodes %v, its path filtered by the armed set is %v", tag, i, gotNodes, want)
		}
		if want := filter(linkPath, armedLinks); !slices.Equal(gotLinks, want) {
			t.Fatalf("%s: flow %d views links %v, its path filtered by the armed set is %v", tag, i, gotLinks, want)
		}
	}
}

// pathViewShapes are the two fail/heal shapes of TestLivePlanBitIdentical:
// the entangled one plans one shard whatever the budget, the scattered one
// four at a budget of four.
var pathViewShapes = []struct {
	name    string
	route   func(t *testing.T) *overlay.Router
	workers int
}{
	{"entangled", func(t *testing.T) *overlay.Router { return linkfailRouter(t, 20061) }, 1},
	{"scattered", func(t *testing.T) *overlay.Router {
		return sparseRouter(t, 20063, 1500, 12, 2, 2e3,
			func(rng *rand.Rand) float64 { return 10 * math.Pow(300, rng.Float64()) })
	}, 4},
}

// TestPathViewsMatchTheRule follows every place the armed set or a path can
// change — NewEngine, Reset, ResetRouting through the seeded fail/heal
// sequence, a SetNodeCapacity that wakes a parked node and SetFlowActive —
// and after each holds every flow's path view to its path filtered by the
// armed set, at one shard and at four. After each wake every armed slot must
// also sit, in ascending order, in the armed list of the shard it carries
// (core.CheckFiled); the scattered shape wakes nodes on multi-shard plans,
// where a wrong shard would show. The full-sweep oracle, which arms
// everything, must view every flow's whole path.
func TestPathViewsMatchTheRule(t *testing.T) {
	for _, c := range pathViewShapes {
		r := c.route(t)
		p := r.Problem()
		cfg := core.WithWorkers(core.Config{Adaptive: true}, c.workers)
		e, err := core.NewEngine(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireViewsByTheRule(t, c.name+": new engine", e)

		oracle, err := core.NewEngine(p.Clone(), core.WithWorkers(cfg, 1))
		if err != nil {
			t.Fatal(err)
		}
		core.SweepAll(oracle)
		for i := range p.Flows {
			fid := model.FlowID(i)
			nodes, links := core.PathView(oracle, fid)
			if len(nodes) != len(oracle.Index().NodesByFlow(fid)) || len(links) != len(oracle.Index().LinksByFlow(fid)) {
				t.Fatalf("%s: the full sweep views %d of flow %d's %d nodes and %d of its %d links", c.name,
					len(nodes), i, len(oracle.Index().NodesByFlow(fid)), len(links), len(oracle.Index().LinksByFlow(fid)))
			}
		}
		requireViewsByTheRule(t, c.name+": full sweep", oracle)
		oracle.Close()

		for i := 0; i < linkfailWarmup; i++ {
			e.Step()
		}
		// A Reset that raises one flow's RateMax so far that the parked links
		// it crosses can bind: they are armed and join the views.
		_, parkedLinks := parkedIDs(e)
		if len(parkedLinks) == 0 {
			t.Fatalf("%s: no parked link", c.name)
		}
		l := model.LinkID(parkedLinks[0])
		fid := e.Index().FlowsByLink(l)[0]
		p.Flows[fid].RateMax = 2 * p.Links[l].Capacity / e.Index().FlowCostsByLink(l)[0]
		if err := e.Reset(p); err != nil {
			t.Fatal(err)
		}
		requireArmedByTheRule(t, c.name+": Reset", e, true)
		requireViewsByTheRule(t, c.name+": Reset", e)

		rng := rand.New(rand.NewSource(20065))
		woke, wokeSharded, maxShards := 0, 0, 1
		runLinkfailSequence(t, r, func(n int, ev linkfailEvent) {
			tag := fmt.Sprintf("%s: event %d", c.name, n)
			if err := e.ResetRouting(p, r.TakeDelta()); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			shards, _, _ := core.Listed(e)
			maxShards = max(maxShards, shards)
			requireArmedByTheRule(t, tag, e, true)
			requireViewsByTheRule(t, tag, e)
			for i := 0; i < linkfailSteps/2; i++ {
				e.Step()
			}
			// Lower a parked node's capacity until it wakes, then lift it
			// back: it stays armed until a re-arm, and stays in the views.
			if nodes, _ := parkedIDs(e); len(nodes) > 0 {
				b := model.NodeID(nodes[rng.Intn(len(nodes))])
				old := p.Nodes[b].Capacity
				for capacity := old; ; {
					if armed, _ := core.Armed(e); slices.Contains(armed, int32(b)) {
						break
					}
					capacity /= 2
					if err := e.SetNodeCapacity(b, capacity); err != nil {
						t.Fatalf("%s: node %d: %v", tag, b, err)
					}
				}
				requireViewsByTheRule(t, tag+", wake", e)
				if err := core.CheckFiled(e); err != nil {
					t.Fatalf("%s, wake of node %d: %v", tag, b, err)
				}
				if err := e.SetNodeCapacity(b, old); err != nil {
					t.Fatal(err)
				}
				requireViewsByTheRule(t, tag+", lift", e)
				woke++
				if shards > 1 {
					wokeSharded++
				}
			}
			i := model.FlowID(rng.Intn(len(p.Flows)))
			e.SetFlowActive(i, false)
			requireViewsByTheRule(t, tag+", flow off", e)
			for k := 0; k < linkfailSteps/2; k++ {
				e.Step()
			}
			e.SetFlowActive(i, true)
			requireViewsByTheRule(t, tag+", flow on", e)
		})
		if woke == 0 {
			t.Errorf("%s: no parked node to wake; the test is vacuous there", c.name)
		}
		if c.workers > 1 && (maxShards == 1 || wokeSharded == 0) {
			t.Errorf("%s: %d wakes on a plan of more than one shard, at most %d shards; the test is vacuous there",
				c.name, wokeSharded, maxShards)
		}
		e.Close()
	}
}

// parkedIDs lists what e's plan lists and its Step does not sweep.
func parkedIDs(e *core.Engine) (nodes, links []int32) {
	listedNodes, listedLinks := core.ListedIDs(e)
	armedNodes, armedLinks := core.Armed(e)
	minus := func(all, armed []int32) []int32 {
		var out []int32
		for _, id := range all {
			if _, ok := slices.BinarySearch(armed, id); !ok {
				out = append(out, id)
			}
		}
		return out
	}
	return minus(listedNodes, armedNodes), minus(listedLinks, armedLinks)
}

// TestRearmFromArmedAndDelta: ResetRouting's re-arm tests the parking rule
// on what was armed before the call, what the delta names and what the
// delta's flows cross — nothing else can change status — and still arms by
// the rule, through the seeded fail/heal sequence at one shard and at four.
// Reset's re-arm tests every listed constraint.
func TestRearmFromArmedAndDelta(t *testing.T) {
	for _, c := range pathViewShapes {
		r := c.route(t)
		p := r.Problem()
		e, err := core.NewEngine(p, core.WithWorkers(core.Config{Adaptive: true}, c.workers))
		if err != nil {
			t.Fatal(err)
		}
		_, listedNodes, listedLinks := core.Listed(e)
		if got := core.RearmTested(e); got != listedNodes+listedLinks {
			t.Fatalf("%s: NewEngine's re-arm tested %d, want every listed constraint, %d", c.name, got, listedNodes+listedLinks)
		}
		for i := 0; i < linkfailWarmup; i++ {
			e.Step()
		}
		fewer, raised := 0, 0
		runLinkfailSequence(t, r, func(n int, ev linkfailEvent) {
			armedNodes, armedLinks := core.Armed(e)
			d := r.TakeDelta()
			if n%16 == 5 && len(d.Flows) > 0 {
				// A delta flow's RateMax may change with its tree: parked
				// constraints it crosses can bind now, named or not.
				p.Flows[d.Flows[0]].RateMax *= 100
				raised++
			}
			if err := e.ResetRouting(p, d); err != nil {
				t.Fatalf("%s: event %d: %v", c.name, n, err)
			}
			most := len(armedNodes) + len(armedLinks) + len(d.Nodes) + len(d.Links)
			for _, i := range d.Flows {
				most += len(e.Index().NodesByFlow(i)) + len(e.Index().LinksByFlow(i))
			}
			got := core.RearmTested(e)
			if got > most {
				t.Fatalf("%s: event %d: the re-arm tested %d, want at most armed + named + on the delta's flows = %d",
					c.name, n, got, most)
			}
			if _, nodes, links := core.Listed(e); got < nodes+links {
				fewer++
			}
			requireArmedByTheRule(t, fmt.Sprintf("%s: event %d", c.name, n), e, true)
			for i := 0; i < linkfailSteps; i++ {
				e.Step()
			}
		})
		if fewer == 0 || raised == 0 {
			t.Errorf("%s: %d re-arms tested fewer than the listed constraints, %d raised a RateMax; the test is vacuous",
				c.name, fewer, raised)
		}
		if err := e.Reset(p); err != nil {
			t.Fatal(err)
		}
		if _, nodes, links := core.Listed(e); core.RearmTested(e) != nodes+links {
			t.Fatalf("%s: Reset's re-arm tested %d, want every listed constraint, %d", c.name, core.RearmTested(e), nodes+links)
		}
		requireArmedByTheRule(t, c.name+": Reset", e, true)
		e.Close()
	}
}
