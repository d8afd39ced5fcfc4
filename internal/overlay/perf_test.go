package overlay

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

// podTopology builds `pods` disjoint ring components of podSize nodes each
// (so a single ring-link failure always has a detour) with one flow per
// pod: source at the pod base, subscribers at the quarter points. Every
// pod is overprovisioned — its fixpoint is rates at RateMax with full
// admission, reached exactly — except pod 0, whose node capacities are
// tight enough to keep admission contended. Failures in pod 0 therefore
// perturb only pod 0, and the other pods' allocations must stay
// bit-identical across a warm re-solve.
func podTopology(pods, podSize int) (*Topology, []float64, []FlowSpec) {
	n := pods * podSize
	tp := NewTopology(n)
	caps := make([]float64, n)
	flows := make([]FlowSpec, 0, pods)
	for p := 0; p < pods; p++ {
		base := p * podSize
		for k := 0; k < podSize; k++ {
			_, _, _ = tp.AddBidirectional(model.NodeID(base+k), model.NodeID(base+(k+1)%podSize), 1e9)
		}
		cap := 1e9
		if p == 0 {
			// Contended: subscriber nodes host 200 units of relay work at
			// full rate plus 500 units of wanted admission against a 400
			// budget, so prices must find the marginal consumer.
			cap = 400
		}
		for k := 0; k < podSize; k++ {
			caps[base+k] = cap
		}
		fs := FlowSpec{
			Name: "pod", Source: model.NodeID(base),
			RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2,
		}
		for _, q := range []int{1, 2, 3} {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name: "c", Node: model.NodeID(base + q*podSize/4),
				MaxConsumers: 100, CostPerConsumer: 5,
				Utility: utility.NewLog(float64(5 * q)),
			})
		}
		flows = append(flows, fs)
	}
	return tp, caps, flows
}

// TestWarmResolveSpeedup10k is the headline acceptance gate: on a
// 10k-node topology, a single-link failure handled by RepairLink +
// ResetRouting + warm Solve does damage-proportional work — one flow
// re-traced by one BFS, no more iterations than a cold rebuild (NewRouter
// + NewEngine + Solve) — with every unaffected flow keeping bit-identical
// trees and allocations; healing the link is as local and puts every tree
// back. The wall-clock ratio those proxies stand for is reported by
// BenchmarkWarmResolve / BenchmarkColdResolve, not asserted here.
func TestWarmResolveSpeedup10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node gate skipped in -short")
	}
	const pods, podSize = 200, 50
	tp, caps, flows := podTopology(pods, podSize)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(r.Problem(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pre := eng.Solve(4000)
	if !pre.Converged {
		t.Fatalf("pre-failure solve did not converge in %d iterations", pre.Iterations)
	}
	base := pre.Allocation
	treesBefore := make([]Tree, len(flows))
	for fi := range flows {
		treesBefore[fi] = r.Tree(model.FlowID(fi))
	}

	// Fail a pod-0 ring link that flow 0's tree uses.
	li := r.Tree(0).Links[0]

	st, err := r.RepairLink(li)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
		t.Fatal(err)
	}
	warm := eng.Solve(4000)
	if !warm.Converged {
		t.Fatalf("warm re-solve did not converge in %d iterations", warm.Iterations)
	}
	if st.Affected != 1 || st.Rerouted != 1 || st.BFSRuns != 1 {
		t.Fatalf("repair stats affected=%d rerouted=%d bfs=%d, want 1/1/1 (pod-0 flow only)", st.Affected, st.Rerouted, st.BFSRuns)
	}

	// Unaffected flows: trees shared verbatim, allocations bit-identical.
	for fi := 1; fi < len(flows); fi++ {
		cur := r.Tree(model.FlowID(fi))
		if !sameSlice(treesBefore[fi].Links, cur.Links) || !sameSlice(treesBefore[fi].Nodes, cur.Nodes) {
			t.Fatalf("unaffected flow %d tree re-allocated", fi)
		}
		if warm.Allocation.Rates[fi] != base.Rates[fi] {
			t.Fatalf("unaffected flow %d rate moved: %g -> %g", fi, base.Rates[fi], warm.Allocation.Rates[fi])
		}
	}
	for j := range base.Consumers {
		if r.Problem().Classes[j].Flow == 0 {
			continue
		}
		if warm.Allocation.Consumers[j] != base.Consumers[j] {
			t.Fatalf("unaffected class %d population moved: %d -> %d", j, base.Consumers[j], warm.Allocation.Consumers[j])
		}
	}

	// Cold rebuild on the same (mutated) topology.
	rc, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := core.NewEngine(rc.Problem(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	cold := ec.Solve(4000)
	if !cold.Converged {
		t.Fatalf("cold solve did not converge in %d iterations", cold.Iterations)
	}

	// Same optimum (the warm path just got there cheaper).
	rel := (warm.Utility - cold.Utility) / cold.Utility
	if rel < -1e-3 || rel > 1e-3 {
		t.Fatalf("warm utility %g vs cold %g (rel %g)", warm.Utility, cold.Utility, rel)
	}

	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm re-solve took %d iterations, cold solve %d", warm.Iterations, cold.Iterations)
	}

	// The heal half: restoring the link re-traces only the flows that can
	// reach it, and every tree returns to what was first routed — the
	// untouched ones as the very same slices.
	treesFailed := make([]Tree, len(flows))
	for fi := range flows {
		treesFailed[fi] = r.Tree(model.FlowID(fi))
	}
	hst, err := r.RestoreLink(li)
	if err != nil {
		t.Fatal(err)
	}
	if hst.Affected > len(flows)/10 || hst.BFSRuns > hst.Affected+2 || hst.Rerouted != 1 {
		t.Fatalf("restore stats affected=%d rerouted=%d bfs=%d of %d flows", hst.Affected, hst.Rerouted, hst.BFSRuns, len(flows))
	}
	for fi := range flows {
		cur := r.Tree(model.FlowID(fi))
		if !cur.equal(treesBefore[fi]) {
			t.Fatalf("flow %d tree after the heal differs from the tree first routed", fi)
		}
		if fi != 0 && (!sameSlice(treesFailed[fi].Links, cur.Links) || !sameSlice(treesFailed[fi].Nodes, cur.Nodes)) {
			t.Fatalf("flow %d tree re-allocated by a heal that did not change it", fi)
		}
	}
}

// BenchmarkTreeRepair measures one link kill + restore cycle on the
// 10k-node pod topology: the kill re-routes the single affected flow, the
// restore sweeps distances around the healed link and re-traces the flows
// those admit. Allocations stay bounded by the damage (changed trees), not
// the topology.
func BenchmarkTreeRepair(b *testing.B) {
	tp, caps, flows := podTopology(100, 100)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		b.Fatal(err)
	}
	li := r.Tree(0).Links[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RepairLink(li); err != nil {
			b.Fatal(err)
		}
		if _, err := r.RestoreLink(li); err != nil {
			b.Fatal(err)
		}
		r.TakeDelta()
	}
}

// BenchmarkWarmResolve measures the full warm path per failure event:
// RepairLink + ResetRouting + Solve to re-convergence, alternating kill
// and restore so every iteration starts from a converged engine.
func BenchmarkWarmResolve(b *testing.B) {
	tp, caps, flows := podTopology(100, 100)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(r.Problem(), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	eng.Solve(4000)
	li := r.Tree(0).Links[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, err = r.RepairLink(li)
		} else {
			_, err = r.RestoreLink(li)
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
			b.Fatal(err)
		}
		eng.Solve(4000)
	}
	b.StopTimer()
	if i := b.N; i%2 == 1 { // leave the topology healed
		_, _ = r.RestoreLink(li)
	}
}

// BenchmarkColdResolve is the rebuild baseline BenchmarkWarmResolve is
// judged against: route everything, build a fresh engine, solve cold.
func BenchmarkColdResolve(b *testing.B) {
	tp, caps, flows := podTopology(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRouter(tp, caps, flows)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(r.Problem(), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		eng.Solve(4000)
		eng.Close()
	}
}

// linkFailureShape is the end-to-end link_failure workload's input
// (bench/inputs.go): 200 flows of three classes over a 10,000-node
// RandomTopologyHetero, node capacities on [2000, 4000]. Under 3,000 of its
// nodes and about 3,000 of its ≈60,000 directed links carry a flow.
func linkFailureShape(rng *rand.Rand) (*Topology, []float64, []FlowSpec) {
	const nodes = 10_000
	tp := RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = 2000 + rng.Float64()*2000
	}
	flows := make([]FlowSpec, 200)
	for fi := range flows {
		fs := FlowSpec{
			Name: "f", Source: model.NodeID(rng.Intn(nodes)),
			RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2,
		}
		for s := 0; s < 3; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name: "c", Node: model.NodeID(rng.Intn(nodes)),
				MaxConsumers: 10 + rng.Intn(50), CostPerConsumer: 5,
				Utility: utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

// BenchmarkNewRouterSparse routes the link_failure shape from scratch: 200
// flows of three subscribers traced over 10,000 nodes, then the problem
// assembled and validated — the overlay.new_router_ms span of that
// workload's set-up.
func BenchmarkNewRouterSparse(b *testing.B) {
	tp, caps, flows := linkFailureShape(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewRouter(tp, caps, flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResetRoutingSparse is one link_failure pair on that shape: fail
// a loaded link, republish, heal it, republish. routing is its routing half
// — no Step in between, so the engine stays where the warm-up left it;
// steps runs the 10 Steps bench/linkfail.go's re-solve runs after each
// republish, the whole event but the enact. The pair is timed and its
// allocations counted; reset-µs/op is the part spent inside the two
// ResetRouting calls, step-µs/op inside the Steps, repair-µs/op inside
// RepairLink and restore-µs/op inside RestoreLink.
func BenchmarkResetRoutingSparse(b *testing.B) {
	for _, c := range []struct {
		name  string
		steps int
	}{{"routing", 0}, {"steps", 10}} {
		b.Run(c.name, func(b *testing.B) {
			tp, caps, flows := linkFailureShape(rand.New(rand.NewSource(1)))
			r, err := NewRouter(tp, caps, flows)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.NewEngine(r.Problem(), core.Config{Adaptive: true})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < 100; i++ {
				eng.Step()
			}
			li := r.Tree(0).Links[0]
			var inReset, inStep, inRepair, inRestore time.Duration
			republish := func() {
				d := r.TakeDelta()
				t0 := time.Now()
				if err := eng.ResetRouting(r.Problem(), d); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				for k := 0; k < c.steps; k++ {
					eng.Step()
				}
				inReset += t1.Sub(t0)
				inStep += time.Since(t1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := r.RepairLink(li); err != nil {
					b.Fatal(err)
				}
				inRepair += time.Since(t0)
				republish()
				t0 = time.Now()
				if _, err := r.RestoreLink(li); err != nil {
					b.Fatal(err)
				}
				inRestore += time.Since(t0)
				republish()
			}
			perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N) }
			b.ReportMetric(perOp(inReset), "reset-µs/op")
			if c.steps > 0 {
				b.ReportMetric(perOp(inStep), "step-µs/op")
			}
			b.ReportMetric(perOp(inRepair), "repair-µs/op")
			b.ReportMetric(perOp(inRestore), "restore-µs/op")
		})
	}
}
