package core_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
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

// requireSameTrajectory compares the engine under test with the full-sweep
// oracle after one Step of each: every StepResult field that means the same
// under both plans (the skip counters count what a plan lists, the
// imbalance what it shards), every rate, population and price, and γ where
// the live plan sweeps — a node outside it keeps whatever γ it left with,
// and is reseeded by the delta that brings it back.
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
// (core.SweepAll: one shard listing every node and link of the problem)
// through the frozen transcript's fail/heal sequence, with capacity and
// demand changes on loaded and unloaded elements in between, and requires
// the two trajectories to be the same floats at every Step, under adaptive
// and fixed γ, at one worker and four. After every ResetRouting it also
// holds the engine to what a sweep of the whole problem would have
// established: the problem passes model.Validate, the index equals a fresh
// model.NewIndex and the adopted plan equals one built from scratch.
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
		{scattered, core.Config{Adaptive: true}, 4, true},
		{scattered, core.Config{}, 4, true},
	} {
		func() {
			cfg, workers := c.cfg, c.workers
			cfg.Workers = workers
			rFull, rLive := c.route(), c.route()
			oracleCfg := cfg
			oracleCfg.Workers = 1
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
				switch n % 4 {
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
				}
				steps("after the mutator", linkfailSteps/2)
			})
			if c.shards && maxShards == 1 {
				t.Errorf("workers %d: every plan of the scattered sequence was one shard", workers)
			}
			full.Close()
			live.Close()
		}()
	}
}

// TestNothingStaleLeavesThePlan: a constraint the plan stops listing is no
// longer refreshed by Step, so ResetRouting must hand it back as it would
// be had no flow ever crossed it — no usage, no benefit-cost ratio, no
// pending force. Checked over the whole fail/heal sequence, on every node
// and link outside the plan after every ResetRouting: a link failed and
// later healed reads, in between, what a link never touched reads.
func TestNothingStaleLeavesThePlan(t *testing.T) {
	r := linkfailRouter(t, 20061)
	e, err := core.NewEngine(r.Problem(), core.Config{Adaptive: true, Workers: 1})
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
	e, err := core.NewEngine(p, core.Config{Adaptive: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}
