package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// Multi-shard equivalence: when the crossing-writes analysis proves a
// problem componentized, Step fans whole components out over the workers
// under one barrier — and must still be bit-identical to the one-shard
// engine, mutations and all. The Random workloads of
// engine_parallel_test.go are one connected component (classes attach
// anywhere), so they pin the one-shard fallback; the Scaled workloads here
// replicate the base problem into independent copies, which is exactly the
// structure the component packing exists for.

// fusedTestProblem builds a componentized workload: FlowCopies independent
// replicas of the base problem, each with its own node sets, plus one
// in-component bottleneck link per flow.
func fusedTestProblem(flowCopies, nodeSetCopies int, withLinks bool) *model.Problem {
	p := workload.Scaled(workload.Config{
		FlowCopies:    flowCopies,
		NodeSetCopies: nodeSetCopies,
	})
	if withLinks {
		p = workload.WithLinkBottlenecks(p, 0.4)
	}
	return p
}

func TestFusedStepBitIdentical(t *testing.T) {
	const iters = 120
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 4; trial++ {
		p := fusedTestProblem(8, 2, trial%2 == 1)
		cfg := Config{Adaptive: trial%2 == 0}
		if !cfg.Adaptive {
			cfg.Gamma = 0.01 + rng.Float64()*0.2
		}
		serialCfg := cfg
		serialCfg.workers = 1

		for _, workers := range []int{2, 4, 8} {
			parCfg := cfg
			parCfg.workers = workers
			par, err := NewEngine(p.Clone(), parCfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if par.plan.shards != workers {
				t.Fatalf("trial %d workers %d: plan has %d shards (%d components)",
					trial, workers, par.plan.shards, par.plan.components)
			}
			ser, err := NewEngine(p.Clone(), serialCfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			mutate := func(e *Engine, it int) {
				switch it {
				case 40:
					e.SetFlowActive(3, false)
				case 60:
					if err := e.SetClassDemand(5, 9); err != nil {
						t.Fatal(err)
					}
				case 80:
					e.SetFlowActive(3, true)
					if err := e.SetNodeCapacity(2, 2*workload.NodeCapacity); err != nil {
						t.Fatal(err)
					}
				}
			}
			for it := 0; it < iters; it++ {
				mutate(ser, it)
				mutate(par, it)
				rs, rp := ser.Step(), par.Step()
				if !sameStep(rs, rp) {
					t.Fatalf("trial %d workers %d iter %d: StepResult %+v, serial %+v",
						trial, workers, it, rp, rs)
				}
				if it%10 == 0 || it == iters-1 {
					assertStateEqual(t, it, workers, ser, par)
				}
			}
			assertStateEqual(t, iters, workers, ser, par)
			if got, want := ser.Utility(), par.Utility(); got != want {
				t.Fatalf("trial %d workers %d: Utility() %v, serial %v", trial, workers, want, got)
			}
			par.Close()
			ser.Close()
		}
	}
}

// TestFusedResetKeepsBitIdentity: Reset restarts the epoch clock; stale
// touch-dedup or cache epochs from the previous life must not leak into
// the new run at matching iteration numbers.
func TestFusedResetKeepsBitIdentity(t *testing.T) {
	p := fusedTestProblem(8, 2, true)
	ser, err := NewEngine(p.Clone(), Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(p.Clone(), Config{Adaptive: true, workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	defer par.Close()
	if par.plan.shards != 4 {
		t.Fatalf("plan has %d shards, want 4", par.plan.shards)
	}
	for it := 0; it < 50; it++ {
		ser.Step()
		par.Step()
	}
	q := p.Clone()
	for b := range q.Nodes {
		q.Nodes[b].Capacity *= 0.9
	}
	if err := ser.Reset(q.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := par.Reset(q.Clone()); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 60; it++ {
		rs, rp := ser.Step(), par.Step()
		if !sameStep(rs, rp) {
			t.Fatalf("post-Reset iter %d: StepResult %+v, serial %+v", it, rp, rs)
		}
	}
	assertStateEqual(t, 60, 4, ser, par)
}

// oneShardLists reports whether lists is the one-shard plan over the ids
// below n that live admits: a single ascending list of exactly those.
func oneShardLists(lists [][]int32, n int, live func(id int) bool) bool {
	if len(lists) != 1 {
		return false
	}
	k := 0
	for id := 0; id < n; id++ {
		if !live(id) {
			continue
		}
		if k >= len(lists[0]) || int(lists[0][k]) != id {
			return false
		}
		k++
	}
	return k == len(lists[0])
}

// loadedNode and loadedLink are the plan's liveness rule at price 0 (every
// plan built here is built at NewEngine prices): some flow crosses it.
func loadedNode(ix *model.Index) func(int) bool {
	return func(b int) bool { return len(ix.FlowsByNode(model.NodeID(b))) > 0 }
}

func loadedLink(ix *model.Index) func(int) bool {
	return func(l int) bool { return len(ix.FlowsByLink(model.LinkID(l))) > 0 }
}

// TestStagePlanFallsBackOnEntangledTopology: a single-component problem
// must not shard — every shard would need every other shard's writes. It
// gets the one-shard plan — every flow, and every node and link a flow
// crosses (the fixture's node 14 carries none and is not listed), in serial
// scan order — and starts no pool, whatever the budget.
func TestStagePlanFallsBackOnEntangledTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := parallelTestProblem(rng, true)
	e, err := NewEngine(p, Config{workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.plan.components >= 4 {
		t.Fatalf("expected < 4 components, got %d", e.plan.components)
	}
	if e.plan.shards != 1 {
		t.Fatalf("entangled workload got %d shards, want 1", e.plan.shards)
	}
	nodes, links := ListedIDs(e)
	if !oneShardLists(e.plan.flows, len(p.Flows), func(int) bool { return true }) ||
		!oneShardLists([][]int32{nodes}, len(p.Nodes), loadedNode(e.ix)) ||
		!oneShardLists([][]int32{links}, len(p.Links), loadedLink(e.ix)) {
		t.Errorf("one-shard plan lists are not the live ids in order: %+v", e.plan)
	}
	if len(nodes) == len(p.Nodes) {
		t.Error("fixture has no unloaded node; the test no longer shows one being left out")
	}
	if e.pool != nil {
		t.Error("one-shard engine started a worker pool")
	}
	if s := e.Snapshot(); s.Sharded {
		t.Error("snapshot reports Sharded for a one-shard engine")
	}
}

// TestStagePlanPartition: every plan — packed components or the one-shard
// fallback — must place every flow in exactly one shard, in ascending order,
// and every live node and link (at NewEngine prices: the ones a flow
// crosses) on the shard of the flows crossing it, and be deterministic
// across rebuilds.
func TestStagePlanPartition(t *testing.T) {
	componentized := fusedTestProblem(16, 1, true)
	entangled := parallelTestProblem(rand.New(rand.NewSource(7)), true)
	for _, c := range []struct {
		name               string
		p                  *model.Problem
		workers            int
		shards, components int
	}{
		{"componentized", componentized, 4, 4, 16},
		{"workers=1", componentized, 1, 1, 0},
		// One component: the fixture's node 14, which no flow crosses, used
		// to count as a second one.
		{"entangled", entangled, 4, 1, 1},
	} {
		ix := model.NewIndex(c.p)
		live := func(n int, link bool, loaded func(int) bool) constraintTable {
			m := newTable(n, link)
			for id := 0; id < n; id++ {
				if loaded(id) {
					m.take(int32(id))
				}
			}
			return m
		}
		build := func(ix *model.Index) (*stagePlan, constraintTable, constraintTable) {
			nodes, links := live(len(c.p.Nodes), false, loadedNode(ix)), live(len(c.p.Links), true, loadedLink(ix))
			return newStagePlan(ix, [2]*constraintTable{&nodes, &links}, c.workers), nodes, links
		}
		plan, nodes, links := build(ix)
		if plan.shards != c.shards || plan.components != c.components {
			t.Fatalf("%s: %d shards, %d components; want %d, %d",
				c.name, plan.shards, plan.components, c.shards, c.components)
		}
		check := func(kind string, lists [][]int32, n int, live func(int) bool) {
			if len(lists) != c.shards {
				t.Fatalf("%s: %d %s lists, want %d", c.name, len(lists), kind, c.shards)
			}
			seen := make([]bool, n)
			for s, ids := range lists {
				for k, v := range ids {
					if k > 0 && ids[k-1] >= v {
						t.Fatalf("%s: %s shard %d not ascending at %d", c.name, kind, s, k)
					}
					if seen[v] {
						t.Fatalf("%s: %s %d assigned twice", c.name, kind, v)
					}
					seen[v] = true
				}
			}
			for v, ok := range seen {
				if ok != live(v) {
					t.Fatalf("%s: %s %d assigned = %v, live = %v", c.name, kind, v, ok, live(v))
				}
			}
		}
		check("flow", plan.flows, len(c.p.Flows), func(int) bool { return true })
		flowShard := make([]int32, len(c.p.Flows))
		for k, ids := range plan.flows {
			for _, i := range ids {
				flowShard[i] = int32(k)
			}
		}
		for _, m := range []*constraintTable{&nodes, &links} {
			for s, id := range m.ids {
				if crossing := m.flows(ix, id); flowShard[crossing[0]] != m.shard[s] {
					t.Fatalf("%s: %s %d is on shard %d, its first flow on %d", c.name, kindName(m), id, m.shard[s], flowShard[crossing[0]])
				}
			}
		}

		again, againNodes, againLinks := build(model.NewIndex(c.p))
		if !reflect.DeepEqual(plan, again) || !reflect.DeepEqual(nodes, againNodes) || !reflect.DeepEqual(links, againLinks) {
			t.Errorf("%s: plan not deterministic across rebuilds", c.name)
		}
	}
}

// TestStepFusedNoAllocs: the multi-shard dispatch reuses the pool, the
// plan lists and the touch buffers, so steady-state Step stays at
// 0 allocs/op.
func TestStepFusedNoAllocs(t *testing.T) {
	e, err := NewEngine(fusedTestProblem(8, 2, true), Config{workers: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.plan.shards != 4 {
		t.Fatalf("plan has %d shards, want 4", e.plan.shards)
	}
	e.Step()
	if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
		t.Errorf("%v allocs per multi-shard Step, want 0", allocs)
	}
}

// TestResetRoutingChangesShardCount: routing decides whether the topology
// splits, so ResetRouting can move an engine between the one-shard plan
// and the packed one in either direction. The engine that starts entangled
// must start its pool only when a plan first needs it, and both must stay
// bit-identical to workers: 1 throughout.
func TestResetRoutingChangesShardCount(t *testing.T) {
	split := fusedTestProblem(16, 1, true)
	// Every flow also traverses link 0: one connected component.
	joined := split.Clone()
	var delta model.RoutingDelta
	delta.Links = []model.LinkID{0}
	for i := range joined.Flows {
		joined.Links[0].FlowCost = joined.Links[0].FlowCost.With(model.FlowID(i), 1)
		delta.Flows = append(delta.Flows, model.FlowID(i))
	}
	joined.Links[0].Capacity *= float64(len(joined.Flows))

	for _, order := range [][]*model.Problem{{split, joined, split}, {joined, split, joined}} {
		ser, err := NewEngine(order[0].Clone(), Config{Adaptive: true, workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewEngine(order[0].Clone(), Config{Adaptive: true, workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for leg, p := range order {
			if leg > 0 {
				if err := ser.ResetRouting(p.Clone(), delta); err != nil {
					t.Fatal(err)
				}
				if err := par.ResetRouting(p.Clone(), delta); err != nil {
					t.Fatal(err)
				}
			}
			wantShards := 4
			if p == joined {
				wantShards = 1
			}
			if par.plan.shards != wantShards {
				t.Fatalf("leg %d: plan has %d shards, want %d", leg, par.plan.shards, wantShards)
			}
			if leg == 0 && (par.pool != nil) != (wantShards > 1) {
				t.Fatalf("leg 0: pool started = %v with %d shards", par.pool != nil, wantShards)
			}
			for it := 0; it < 60; it++ {
				if rs, rp := ser.Step(), par.Step(); !sameStep(rs, rp) {
					t.Fatalf("leg %d iter %d: StepResult %+v, serial %+v", leg, it, rp, rs)
				}
			}
			assertStateEqual(t, leg, 4, ser, par)
		}
		ser.Close()
		par.Close()
	}
}
