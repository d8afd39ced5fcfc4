package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/overlay"
)

// liveNode reports whether the plan rule lists node b: a flow crosses it or
// it holds a price.
func liveNode(e *core.Engine, prices []float64, b int) bool {
	return prices[b] != 0 || len(e.Index().FlowsByNode(model.NodeID(b))) > 0
}

// boxBound is what the crossing flows cost a constraint when each sends at
// its RateMax.
func boxBound(p *model.Problem, crossing []model.FlowID, costs []float64) float64 {
	bound := 0.0
	for k, i := range crossing {
		bound += costs[k] * p.Flows[i].RateMax
	}
	return bound
}

// wantArmed re-states the arming rule from the problem alone, independently
// of the engine's own predicate: a listed node is parked iff its price is 0,
// no class is attached to it, the crossing flows at their RateMax fit its
// capacity and, under adaptive γ, its stepsize sits at the ceiling; a listed
// link iff its price is 0 and the crossing flows at their RateMax fit.
func wantArmed(e *core.Engine, adaptive bool) (nodes, links []int32) {
	p, ix := e.Problem(), e.Index()
	fits := func(crossing []model.FlowID, costs []float64, capacity float64) bool {
		return boxBound(p, crossing, costs) <= capacity
	}
	listedNodes, listedLinks := core.ListedIDs(e)
	np, lp, g := e.NodePrices(), e.LinkPrices(), e.Gammas()
	for _, b := range listedNodes {
		bid := model.NodeID(b)
		if np[b] == 0 && len(ix.ClassesByNode(bid)) == 0 && (!adaptive || g[b] == core.DefaultGammaMax) &&
			fits(ix.FlowsByNode(bid), ix.FlowCostsByNode(bid), p.Nodes[b].Capacity) {
			continue
		}
		nodes = append(nodes, b)
	}
	for _, l := range listedLinks {
		lid := model.LinkID(l)
		if lp[l] == 0 && fits(ix.FlowsByLink(lid), ix.FlowCostsByLink(lid), p.Links[l].Capacity) {
			continue
		}
		links = append(links, l)
	}
	return nodes, links
}

// requireArmedByTheRule holds the engine, right after something re-armed it,
// to wantArmed: Step sweeps exactly the listed constraints that can bind.
func requireArmedByTheRule(t *testing.T, tag string, e *core.Engine, adaptive bool) {
	t.Helper()
	gotNodes, gotLinks := core.Armed(e)
	wantNodes, wantLinks := wantArmed(e, adaptive)
	if !slices.Equal(gotNodes, wantNodes) {
		t.Fatalf("%s: armed nodes %v, the rule says %v", tag, gotNodes, wantNodes)
	}
	if !slices.Equal(gotLinks, wantLinks) {
		t.Fatalf("%s: armed links %v, the rule says %v", tag, gotLinks, wantLinks)
	}
}

// requireSameTrajectory compares the engine under test with the full-sweep
// oracle after one Step of each: every StepResult field that means the same
// under both (the skip counters count what an engine sweeps, the imbalance
// what it shards), every rate, population and price, and γ where the live
// plan lists — a node outside it keeps whatever γ it left with, and is
// reseeded by the delta that brings it back; a parked one sits at the
// ceiling in both.
func requireSameTrajectory(t *testing.T, tag string, full, live *core.Engine, rf, rl core.StepResult) {
	t.Helper()
	if rf.Iteration != rl.Iteration || rf.Utility != rl.Utility ||
		rf.MaxNodeOverload != rl.MaxNodeOverload || rf.MaxLinkOverload != rl.MaxLinkOverload ||
		rf.DirtyFlows != rl.DirtyFlows {
		t.Fatalf("%s: StepResult %+v, full sweep %+v", tag, rl, rf)
	}
	if rl.SkippedNodes > rf.SkippedNodes || rl.SkippedLinks > rf.SkippedLinks {
		t.Fatalf("%s: live plan skipped more than the full sweep: %+v, full sweep %+v", tag, rl, rf)
	}
	fa, la := full.Allocation(), live.Allocation()
	for i := range fa.Rates {
		if fa.Rates[i] != la.Rates[i] {
			t.Fatalf("%s: rate[%d] = %v, full sweep %v", tag, i, la.Rates[i], fa.Rates[i])
		}
	}
	for j := range fa.Consumers {
		if fa.Consumers[j] != la.Consumers[j] {
			t.Fatalf("%s: consumers[%d] = %d, full sweep %d", tag, j, la.Consumers[j], fa.Consumers[j])
		}
	}
	fn, ln := full.NodePrices(), live.NodePrices()
	fg, lg := full.Gammas(), live.Gammas()
	for b := range fn {
		if fn[b] != ln[b] {
			t.Fatalf("%s: nodePrice[%d] = %v, full sweep %v", tag, b, ln[b], fn[b])
		}
		if liveNode(live, ln, b) && fg[b] != lg[b] {
			t.Fatalf("%s: gamma[%d] = %v, full sweep %v", tag, b, lg[b], fg[b])
		}
	}
	fl, ll := full.LinkPrices(), live.LinkPrices()
	for l := range fl {
		if fl[l] != ll[l] {
			t.Fatalf("%s: linkPrice[%d] = %v, full sweep %v", tag, l, ll[l], fl[l])
		}
	}
}

// TestLivePlanBitIdentical runs the engine beside the full-sweep oracle
// (core.SweepAll: one shard listing every node and link of the problem, all
// of them armed whatever the bound says) through the frozen transcript's
// fail/heal sequence and requires the two trajectories to be the same floats
// at every Step, under adaptive and fixed γ, at one worker and four. Between
// events the script changes capacity and demand on loaded and unloaded
// elements, drops a parked transit node under its load (it must wake) and
// lifts it back, raises a flow's RateMax by Reset so that a parked link can
// bind, and raises a priced transit node's capacity by Reset so that it is
// slack but priced: it stays armed while its price decays and the re-arm
// after it has reached 0 parks it. After every ResetRouting it also holds
// the engine to what a sweep of the whole problem would have established —
// the problem passes model.Validate, the index equals a fresh
// model.NewIndex, the adopted plan equals one built from scratch — and
// after every re-arm to the arming rule as wantArmed re-states it.
func TestLivePlanBitIdentical(t *testing.T) {
	// Two shapes: the transcript's, whose 24 trees entangle into one
	// component, and a dozen flows scattered over 1,500 nodes, most of them
	// a component of their own, so that four workers really get four shards.
	scattered := func() *overlay.Router {
		return sparseRouter(t, 20063, 1500, 12, 2, 2e3,
			func(rng *rand.Rand) float64 { return 10 * math.Pow(300, rng.Float64()) })
	}
	entangled := func() *overlay.Router { return linkfailRouter(t, 20061) }
	for _, c := range []struct {
		route   func() *overlay.Router
		cfg     core.Config
		workers int
		shards  bool
	}{
		{entangled, core.Config{Adaptive: true}, 1, false},
		{entangled, core.Config{Adaptive: true}, 4, false},
		{entangled, core.Config{}, 4, false},
		{entangled, core.Config{Gamma1: 0.75}, 1, false},
		{scattered, core.Config{Adaptive: true}, 4, true},
		{scattered, core.Config{}, 4, true},
	} {
		func() {
			workers := c.workers
			cfg := core.WithWorkers(c.cfg, workers)
			rFull, rLive := c.route(), c.route()
			oracleCfg := core.WithWorkers(cfg, 1)
			full, err := core.NewEngine(rFull.Problem(), oracleCfg)
			if err != nil {
				t.Fatal(err)
			}
			core.SweepAll(full)
			live, err := core.NewEngine(rLive.Problem(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, nodes, links := core.Listed(live); nodes >= 3*len(live.Problem().Nodes)/4 || links >= len(live.Problem().Links)/4 {
				t.Fatalf("plan lists %d nodes and %d links: the workload is not sparse", nodes, links)
			}
			requireArmedByTheRule(t, "new engine", live, cfg.Adaptive)
			steps := func(tag string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					rf, rl := full.Step(), live.Step()
					requireSameTrajectory(t, tag, full, live, rf, rl)
				}
			}
			both := func(do func(e *core.Engine) error) {
				t.Helper()
				for _, e := range []*core.Engine{full, live} {
					if err := do(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			// reset edits both routers' problems the same way and Resets
			// each engine to its own.
			reset := func(tag string, edit func(p *model.Problem)) {
				t.Helper()
				edit(rFull.Problem())
				edit(rLive.Problem())
				if err := full.Reset(rFull.Problem()); err != nil {
					t.Fatal(err)
				}
				if err := live.Reset(rLive.Problem()); err != nil {
					t.Fatal(err)
				}
				core.SweepAll(full)
				requireArmedByTheRule(t, tag, live, cfg.Adaptive)
			}
			isArmedNode := func(b int32) bool {
				nodes, _ := core.Armed(live)
				_, ok := slices.BinarySearch(nodes, b)
				return ok
			}
			// parked lists what the plan lists and Step does not sweep.
			parked := func() (nodes, links []int32) {
				listedNodes, listedLinks := core.ListedIDs(live)
				armedNodes, armedLinks := core.Armed(live)
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
			if nodes, links := parked(); len(nodes) == 0 || len(links) == 0 {
				t.Fatalf("the new engine parks nodes %v and links %v: the script needs some of each", nodes, links)
			}
			var woken struct {
				node     int32
				capacity float64
				asleep   bool // a drop is waiting for its lift
			}
			// slackNodes and slackLinks were priced when a Reset gave them
			// room for every rate in the box: armed for as long as the price
			// lasts, whatever the bound says.
			var slackNodes, slackLinks []int32
			requirePricedArmed := func(tag string) {
				t.Helper()
				armedNodes, armedLinks := core.Armed(live)
				nodePrices, linkPrices := live.NodePrices(), live.LinkPrices()
				for _, b := range slackNodes {
					if _, armed := slices.BinarySearch(armedNodes, b); nodePrices[b] != 0 && !armed {
						t.Fatalf("%s: node %d at price %g is parked", tag, b, nodePrices[b])
					}
				}
				for _, l := range slackLinks {
					if _, armed := slices.BinarySearch(armedLinks, l); linkPrices[l] != 0 && !armed {
						t.Fatalf("%s: link %d at price %g is parked", tag, l, linkPrices[l])
					}
				}
			}
			var did struct{ woke, lifted, unparkedLink, slackPriced, reparkedNodes, reparkedLinks int }
			steps("warm-up", linkfailWarmup)

			maxShards := 1
			rng := rand.New(rand.NewSource(20064)) // picks the mutators' targets
			runLinkfailSequence(t, rLive, func(n int, ev linkfailEvent) {
				ev.apply(t, rFull)
				both(func(e *core.Engine) error {
					r := rFull
					if e == live {
						r = rLive
					}
					return e.ResetRouting(r.Problem(), r.TakeDelta())
				})
				core.SweepAll(full)

				p := live.Problem()
				if err := model.Validate(p); err != nil {
					t.Fatalf("event %d: %v", n, err)
				}
				if !reflect.DeepEqual(live.Index(), model.NewIndex(p)) {
					t.Fatalf("event %d: the refreshed index differs from a fresh NewIndex", n)
				}
				if err := core.CheckPlanFresh(live); err != nil {
					t.Fatalf("event %d: %v", n, err)
				}
				if shards, _, _ := core.Listed(live); shards > maxShards {
					maxShards = shards
				}
				requireArmedByTheRule(t, fmt.Sprintf("event %d", n), live, cfg.Adaptive)

				// Between events: capacity on a node a flow crosses and on
				// one none does, demand down and back up.
				prices := live.NodePrices()
				loaded, idle := -1, -1
				for b := range prices {
					switch {
					case len(live.Index().FlowsByNode(model.NodeID(b))) > 0:
						if loaded < 0 || rng.Intn(8) == 0 {
							loaded = b
						}
					case prices[b] == 0:
						if idle < 0 || rng.Intn(8) == 0 {
							idle = b
						}
					}
				}
				steps("after the event", linkfailSteps/2)
				switch n % 8 {
				case 0:
					both(func(e *core.Engine) error {
						return e.SetNodeCapacity(model.NodeID(loaded), 0.8*e.Problem().Nodes[loaded].Capacity)
					})
				case 1:
					both(func(e *core.Engine) error {
						return e.SetNodeCapacity(model.NodeID(idle), 0.5*e.Problem().Nodes[idle].Capacity)
					})
				case 2:
					both(func(e *core.Engine) error { return e.SetClassDemand(model.ClassID(n%len(p.Classes)), 3) })
				case 3:
					both(func(e *core.Engine) error { return e.SetClassDemand(model.ClassID((n-1)%len(p.Classes)), 40) })
				case 4:
					// A parked transit node gets half the capacity its flows
					// use right now: it wakes, overloads and is priced.
					nodes, _ := parked()
					if len(nodes) == 0 {
						break
					}
					b := nodes[rng.Intn(len(nodes))]
					woken.node, woken.capacity, woken.asleep = b, p.Nodes[b].Capacity, true
					used := model.NodeUsage(p, live.Index(), live.Allocation(), model.NodeID(b))
					both(func(e *core.Engine) error { return e.SetNodeCapacity(model.NodeID(b), used/2) })
					if !isArmedNode(b) {
						t.Fatalf("event %d: node %d uses %g of capacity %g and is still parked", n, b, used, used/2)
					}
					did.woke++
				case 5:
					if !woken.asleep {
						break
					}
					woken.asleep = false
					both(func(e *core.Engine) error { return e.SetNodeCapacity(model.NodeID(woken.node), woken.capacity) })
					if !isArmedNode(woken.node) {
						t.Fatalf("event %d: SetNodeCapacity parked node %d; only a re-arm may", n, woken.node)
					}
					did.lifted++
				case 6:
					// One flow of a parked link may now send enough to fill it.
					_, links := parked()
					if len(links) == 0 {
						break
					}
					l := model.LinkID(links[rng.Intn(len(links))])
					i := live.Index().FlowsByLink(l)[0]
					rateMax := 2 * p.Links[l].Capacity / live.Index().FlowCostsByLink(l)[0]
					reset(fmt.Sprintf("event %d, RateMax of flow %d raised", n, i),
						func(q *model.Problem) { q.Flows[i].RateMax = rateMax })
					if _, armedLinks := core.Armed(live); !slices.Contains(armedLinks, int32(l)) {
						t.Fatalf("event %d: link %d can bind at RateMax %g and is still parked", n, l, rateMax)
					}
					did.unparkedLink++
				case 7:
					// A priced transit node and a priced link get room for
					// everything their flows could send: slack, but armed
					// until the price is gone.
					ix := live.Index()
					b, l := int32(-1), int32(-1)
					for c, price := range prices {
						cid := model.NodeID(c)
						if price != 0 && len(ix.ClassesByNode(cid)) == 0 && len(ix.FlowsByNode(cid)) > 0 && (b < 0 || rng.Intn(4) == 0) {
							b = int32(c)
						}
					}
					linkPrices := live.LinkPrices()
					for c, price := range linkPrices {
						if price != 0 && len(ix.FlowsByLink(model.LinkID(c))) > 0 && (l < 0 || rng.Intn(4) == 0) {
							l = int32(c)
						}
					}
					if b < 0 || l < 0 {
						break
					}
					nodeCap := 2 * boxBound(p, ix.FlowsByNode(model.NodeID(b)), ix.FlowCostsByNode(model.NodeID(b)))
					linkCap := 2 * boxBound(p, ix.FlowsByLink(model.LinkID(l)), ix.FlowCostsByLink(model.LinkID(l)))
					reset(fmt.Sprintf("event %d, capacity of node %d and link %d raised", n, b, l), func(q *model.Problem) {
						q.Nodes[b].Capacity, q.Links[l].Capacity = nodeCap, linkCap
					})
					slackNodes, slackLinks = append(slackNodes, b), append(slackLinks, l)
					requirePricedArmed(fmt.Sprintf("event %d", n))
					did.slackPriced++
				}
				steps("after the mutator", linkfailSteps/2)
			})
			if c.shards && maxShards == 1 {
				t.Errorf("workers %d: every plan of the scattered sequence was one shard", workers)
			}

			// A slack link's price falls by γ_l·(c − used) a Step and is
			// projected to exactly 0 within a few hundred. A slack node's
			// falls by the factor 1 − γ, and reaches 0 only if γ > ½ (some
			// 540 Steps at ¾): at γ ≤ ½ the product γ·p rounds to nothing a
			// few denormal steps above 0 — 2e-323 at the default 0.1 — and
			// Equation 12 holds the price there for ever, so such a node is
			// priced and stays armed. Every Step is compared; the re-arm
			// afterwards parks what has reached 0.
			decaySteps := 150
			if cfg.Gamma1 > 0.5 {
				decaySteps = 600
			}
			for n := 0; n < decaySteps; n++ {
				requirePricedArmed(fmt.Sprintf("decay Step %d", n))
				steps("decaying", 1)
			}
			reset("after the decay", func(*model.Problem) {})
			armedNodes, armedLinks := core.Armed(live)
			listedNodes, listedLinks := core.ListedIDs(live)
			for _, b := range slackNodes {
				if slices.Contains(listedNodes, b) && !slices.Contains(armedNodes, b) {
					did.reparkedNodes++
				}
			}
			for _, l := range slackLinks {
				if slices.Contains(listedLinks, l) && !slices.Contains(armedLinks, l) {
					did.reparkedLinks++
				}
			}
			steps("after the decay", linkfailSteps)
			if did.woke == 0 || did.lifted == 0 || did.unparkedLink == 0 || did.slackPriced == 0 || did.reparkedLinks == 0 ||
				(did.reparkedNodes > 0) != (cfg.Gamma1 > 0.5) {
				t.Errorf("%+v: the script misses an event kind: %+v", cfg, did)
			}
			full.Close()
			live.Close()
		}()
	}
}

// TestSparseShapeArmsWhatCanBind pins the counts of the link_failure shape
// (bench/inputs.go, seed 1): the plan lists the 2,675 nodes and 3,006 links
// some flow crosses, and Step sweeps the 578 nodes that carry a class and no
// link at all — link capacity is 10⁵ and up, a few flows at RateMax 100 and
// cost 1 cannot fill it, and the transit nodes have room for every flow that
// crosses them. The counts repeat exactly and survive 100 Steps and a Reset.
// A one-flow repair then re-plans from the lists it had and the delta: it
// tests that many ids, not the 10,000 nodes and 60,000 links of the overlay.
func TestSparseShapeArmsWhatCanBind(t *testing.T) {
	r := sparseRouter(t, 1, 10_000, 200, 1e5, 1e6,
		func(rng *rand.Rand) float64 { return 2000 + rng.Float64()*2000 })
	p := r.Problem()
	e, err := core.NewEngine(p, core.WithWorkers(core.Config{Adaptive: true}, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got, want := core.PlanTested(e), len(p.Nodes)+len(p.Links); got != want {
		t.Fatalf("NewEngine tested %d ids, want all %d", got, want)
	}
	requireCounts := func(tag string) {
		t.Helper()
		_, listedNodes, listedLinks := core.Listed(e)
		armedNodes, armedLinks := core.Armed(e)
		if listedNodes != 2675 || listedLinks != 3006 || len(armedNodes) != 578 || len(armedLinks) != 0 {
			t.Fatalf("%s: %d nodes and %d links listed, %d and %d armed; want 2675, 3006, 578, 0",
				tag, listedNodes, listedLinks, len(armedNodes), len(armedLinks))
		}
		requireArmedByTheRule(t, tag, e, true)
	}
	requireCounts("new engine")
	var last core.StepResult
	for i := 0; i < 100; i++ {
		last = e.Step()
	}
	if swept := last.DirtyFlows + 578 - last.SkippedNodes - last.SkippedLinks; e.Snapshot().ShardWork[0] != swept || last.SkippedLinks != 0 {
		t.Fatalf("Step 100 recomputed %v items, its counters say %d: %+v", e.Snapshot().ShardWork, swept, last)
	}
	if err := e.Reset(p); err != nil {
		t.Fatal(err)
	}
	requireCounts("after 100 Steps and a Reset")

	if _, err := r.RepairLink(r.Tree(0).Links[0]); err != nil {
		t.Fatal(err)
	}
	d := r.TakeDelta()
	if err := e.ResetRouting(p, d); err != nil {
		t.Fatal(err)
	}
	if got, most := core.PlanTested(e), 2675+3006+len(d.Nodes)+len(d.Links); got > most {
		t.Fatalf("the re-plan after a one-flow repair tested %d ids, want at most listed + delta = %d", got, most)
	}
	if err := core.CheckPlanFresh(e); err != nil {
		t.Fatal(err)
	}
	requireArmedByTheRule(t, "after the repair", e, true)
}

// TestReplanFromListedAndDelta follows the fail/heal sequence at γ = 1, where
// Equation 12 takes the price of a node that lost its last flow to exactly 0
// in one Step (at the default 0.1 it never gets there, see
// TestLivePlanBitIdentical). Such a node is in the plan being replaced, the
// next delta does not name it, and it must leave the lists all the same: the
// re-plan tests what the old plan lists, not only what the delta names — and
// nothing else, which the count of ids tested shows. CheckPlanFresh is the
// equality with the full scan after each of the 48 events.
func TestReplanFromListedAndDelta(t *testing.T) {
	r := linkfailRouter(t, 20061)
	e, err := core.NewEngine(r.Problem(), core.WithWorkers(core.Config{Gamma1: 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := e.Problem()
	if got, want := core.PlanTested(e), len(p.Nodes)+len(p.Links); got != want {
		t.Fatalf("NewEngine tested %d ids, want all %d", got, want)
	}
	for i := 0; i < linkfailWarmup; i++ {
		e.Step()
	}
	// lingering: listed after a ResetRouting although no flow crosses them,
	// for their price.
	var lingeringNodes, lingeringLinks []int32
	leftNodes, leftLinks := 0, 0
	runLinkfailSequence(t, r, func(n int, ev linkfailEvent) {
		d := r.TakeDelta()
		_, listedNodes, listedLinks := core.Listed(e)
		// Of those, the ones whose price is gone and which d passes over.
		nodePrices, linkPrices := e.NodePrices(), e.LinkPrices()
		var goneNodes, goneLinks []int32
		for _, b := range lingeringNodes {
			if nodePrices[b] == 0 && !slices.Contains(d.Nodes, model.NodeID(b)) {
				goneNodes = append(goneNodes, b)
			}
		}
		for _, l := range lingeringLinks {
			if linkPrices[l] == 0 && !slices.Contains(d.Links, model.LinkID(l)) {
				goneLinks = append(goneLinks, l)
			}
		}
		if err := e.ResetRouting(p, d); err != nil {
			t.Fatalf("event %d (%+v): %v", n, ev, err)
		}
		if got, most := core.PlanTested(e), listedNodes+listedLinks+len(d.Nodes)+len(d.Links); got > most {
			t.Fatalf("event %d: the re-plan tested %d ids, want at most listed + delta = %d", n, got, most)
		}
		if err := core.CheckPlanFresh(e); err != nil {
			t.Fatalf("event %d: %v", n, err)
		}
		nowNodes, nowLinks := core.ListedIDs(e)
		for _, b := range goneNodes {
			if slices.Contains(nowNodes, b) && len(e.Index().FlowsByNode(model.NodeID(b))) == 0 {
				t.Fatalf("event %d: node %d has no flow and no price and is still listed", n, b)
			}
			leftNodes++
		}
		for _, l := range goneLinks {
			if slices.Contains(nowLinks, l) && len(e.Index().FlowsByLink(model.LinkID(l))) == 0 {
				t.Fatalf("event %d: link %d has no flow and no price and is still listed", n, l)
			}
			leftLinks++
		}
		lingeringNodes, lingeringLinks = lingeringNodes[:0], lingeringLinks[:0]
		for _, b := range nowNodes {
			if len(e.Index().FlowsByNode(model.NodeID(b))) == 0 {
				lingeringNodes = append(lingeringNodes, b)
			}
		}
		for _, l := range nowLinks {
			if len(e.Index().FlowsByLink(model.LinkID(l))) == 0 {
				lingeringLinks = append(lingeringLinks, l)
			}
		}
		for i := 0; i < linkfailSteps; i++ {
			e.Step()
		}
	})
	if leftNodes == 0 {
		t.Fatalf("no priced node lost its flows, decayed and was passed over by the next delta (links: %d); the test is vacuous", leftLinks)
	}
	t.Logf("%d nodes and %d links left the plan unnamed", leftNodes, leftLinks)
}

// TestNothingStaleLeavesThePlan: a constraint the plan stops listing is no
// longer refreshed by Step, so ResetRouting must hand it back as it would
// be had no flow ever crossed it — no usage, no benefit-cost ratio, no
// pending force. Checked over the whole fail/heal sequence, on every node
// and link outside the plan after every ResetRouting: a link failed and
// later healed reads, in between, what a link never touched reads.
func TestNothingStaleLeavesThePlan(t *testing.T) {
	r := linkfailRouter(t, 20061)
	e, err := core.NewEngine(r.Problem(), core.WithWorkers(core.Config{Adaptive: true}, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := core.CheckIdleCaches(e); err != nil {
		t.Fatalf("new engine: %v", err)
	}
	for i := 0; i < linkfailWarmup; i++ {
		e.Step()
	}
	left := 0
	runLinkfailSequence(t, r, func(n int, ev linkfailEvent) {
		_, nodesBefore, linksBefore := core.Listed(e)
		if err := e.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatal(err)
		}
		if _, nodes, links := core.Listed(e); nodes < nodesBefore || links < linksBefore {
			left++
		}
		if err := core.CheckIdleCaches(e); err != nil {
			t.Fatalf("event %d (%+v): %v", n, ev, err)
		}
		for i := 0; i < linkfailSteps; i++ {
			e.Step()
		}
	})
	if left == 0 {
		t.Fatal("no event shrank the plan; the test is vacuous")
	}
}

// TestResetRoutingWorkersBitIdentical: after a repair + ResetRouting, the
// serial and sharded engines stay bit-identical — this fails if
// ResetRouting forgets to rebuild the stage plan for the new routing. On
// the entangled shape (80 roomy nodes, ten flows) a budget of four still
// plans one shard; the scattered one of TestLivePlanBitIdentical really
// gets four.
func TestResetRoutingWorkersBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name   string
		route  func() *overlay.Router
		shards int
	}{
		{"entangled", func() *overlay.Router {
			return sparseRouter(t, 23, 80, 10, 1e5, 1e6,
				func(rng *rand.Rand) float64 { return 5e4 + rng.Float64()*1e5 })
		}, 1},
		{"scattered", func() *overlay.Router {
			return sparseRouter(t, 20063, 1500, 12, 2, 2e3,
				func(rng *rand.Rand) float64 { return 10 * math.Pow(300, rng.Float64()) })
		}, 4},
	} {
		run := func(workers int) (model.Allocation, int) {
			r := c.route()
			eng, err := core.NewEngine(r.Problem(), core.WithWorkers(core.Config{}, workers))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.Solve(200)

			// Kill the first link some flow uses.
			for li := 0; li < r.Topology().LinkCount(); li++ {
				if len(r.FlowsThroughLink(li)) == 0 {
					continue
				}
				if _, err := r.RepairLink(li); err == nil {
					break
				}
			}
			if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
				t.Fatal(err)
			}
			eng.Solve(200)
			shards, _, _ := core.Listed(eng)
			return eng.Allocation(), shards
		}

		serial, _ := run(1)
		sharded, shards := run(4)
		if shards != c.shards {
			t.Fatalf("%s: a budget of 4 plans %d shards after the repair, want %d", c.name, shards, c.shards)
		}
		if !slices.Equal(serial.Rates, sharded.Rates) {
			t.Fatalf("%s: rates diverge between shard budgets:\nserial  %v\nsharded %v", c.name, serial.Rates, sharded.Rates)
		}
		if !slices.Equal(serial.Consumers, sharded.Consumers) {
			t.Fatalf("%s: consumers diverge between shard budgets:\nserial  %v\nsharded %v", c.name, serial.Consumers, sharded.Consumers)
		}
	}
}

// TestResetRoutingValidatesTheDelta: ResetRouting no longer sweeps the
// problem with model.Validate, so each of Validate's per-element rules has
// to catch its violation on an element the delta names — and refuse it with
// the engine's problem, index, plan and warm state as they were, which the
// untouched twin stepping in lockstep afterwards shows.
func TestResetRoutingValidatesTheDelta(t *testing.T) {
	base := linkfailRouter(t, 20061).Problem()
	ix := model.NewIndex(base)
	// A class with demand, its flow and node; a link that flow crosses.
	const cid = 0
	fid, nid := base.Classes[cid].Flow, base.Classes[cid].Node
	lid := ix.LinksByFlow(fid)[0]

	for _, c := range []struct {
		name    string
		break_  func(q *model.Problem) model.RoutingDelta
		invalid bool   // the error wraps model.ErrInvalid
		message string // and says this
	}{
		{"dirty node with capacity 0", func(q *model.Problem) model.RoutingDelta {
			q.Nodes[nid].Capacity = 0
			return model.RoutingDelta{Nodes: []model.NodeID{nid}}
		}, true, "capacity 0"},
		{"dirty link with a negative cost", func(q *model.Problem) model.RoutingDelta {
			q.Links[lid].FlowCost[fid] = -1
			return model.RoutingDelta{Links: []model.LinkID{lid}}
		}, true, "cost -1"},
		{"dirty link with an unknown flow", func(q *model.Problem) model.RoutingDelta {
			q.Links[lid].FlowCost[model.FlowID(len(q.Flows)+3)] = 1
			return model.RoutingDelta{Links: []model.LinkID{lid}}
		}, true, "unknown flow"},
		{"dirty link that is a self-loop", func(q *model.Problem) model.RoutingDelta {
			q.Links[lid].To = q.Links[lid].From
			return model.RoutingDelta{Links: []model.LinkID{lid}}
		}, true, "self-loop"},
		{"dirty flow with RateMin > RateMax", func(q *model.Problem) model.RoutingDelta {
			q.Flows[fid].RateMin = 2 * q.Flows[fid].RateMax
			return model.RoutingDelta{Flows: []model.FlowID{fid}}
		}, true, "rate bounds"},
		{"class with demand whose node left the tree", func(q *model.Problem) model.RoutingDelta {
			delete(q.Nodes[nid].FlowCost, fid)
			return model.RoutingDelta{Flows: []model.FlowID{fid}, Nodes: []model.NodeID{nid}}
		}, true, "does not reach it"},
		{"membership change of a flow the delta does not name", func(q *model.Problem) model.RoutingDelta {
			delete(q.Links[lid].FlowCost, fid)
			return model.RoutingDelta{Links: []model.LinkID{lid}}
		}, false, "flow not in delta"},
	} {
		p := base.Clone()
		hit, twin := mustEngine(t, p), mustEngine(t, base.Clone())
		for i := 0; i < 30; i++ {
			hit.Step()
			twin.Step()
		}
		q := p.Clone()
		err := hit.ResetRouting(q, c.break_(q))
		if err == nil {
			t.Fatalf("%s: ResetRouting accepted it", c.name)
		}
		if errors.Is(err, model.ErrInvalid) != c.invalid || !strings.Contains(err.Error(), c.message) {
			t.Fatalf("%s: error %q (wraps ErrInvalid: %v), want %q (%v)",
				c.name, err, errors.Is(err, model.ErrInvalid), c.message, c.invalid)
		}
		if hit.Problem() != p {
			t.Fatalf("%s: the engine adopted the refused problem", c.name)
		}
		if !reflect.DeepEqual(hit.Index(), model.NewIndex(p)) {
			t.Fatalf("%s: the refused delta changed the index", c.name)
		}
		if err := core.CheckPlanFresh(hit); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hit.Iteration() != twin.Iteration() {
			t.Fatalf("%s: iteration %d, twin %d", c.name, hit.Iteration(), twin.Iteration())
		}
		for i := 0; i < 10; i++ {
			rh, rt := hit.Step(), twin.Step()
			if got, want := stateLine(hit, rh.Utility), stateLine(twin, rt.Utility); got != want || rh != rt {
				t.Fatalf("%s: Step %d after the refusal: %+v %s, twin %+v %s", c.name, i+1, rh, got, rt, want)
			}
		}
		hit.Close()
		twin.Close()
	}
}

func mustEngine(t *testing.T, p *model.Problem) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(p, core.WithWorkers(core.Config{Adaptive: true}, 1))
	if err != nil {
		t.Fatal(err)
	}
	return e
}
