package core

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// parkProblem: flows from node 0 over transit node 1 and link 0 (1→2) to
// node 2, where each has one class. Node 1 and link 0 charge costs[i] for
// flow i and have the given capacity; nodes 0 and 2 have room for anything.
// Node 1 carries no class, so whether Step sweeps it and link 0 is the
// arming rule's bound against capacity and nothing else.
func parkProblem(costs, rateMax []float64, capacity float64) *model.Problem {
	p := &model.Problem{
		Nodes: []model.Node{
			{ID: 0, Capacity: 1e300},
			{ID: 1, Capacity: capacity},
			{ID: 2, Capacity: 1e300},
		},
		Links: []model.Link{{ID: 0, From: 1, To: 2, Capacity: capacity}},
	}
	for i, c := range costs {
		fid := model.FlowID(i)
		p.Flows = append(p.Flows, model.Flow{ID: fid, Source: 0, RateMin: rateMax[i] / 4, RateMax: rateMax[i]})
		p.Classes = append(p.Classes, model.Class{ID: model.ClassID(i), Flow: fid, Node: 2,
			MaxConsumers: 5, CostPerConsumer: 1, Utility: utility.NewLog(10)})
		p.Nodes[0].FlowCost, p.Nodes[2].FlowCost = p.Nodes[0].FlowCost.With(fid, 1), p.Nodes[2].FlowCost.With(fid, 1)
		p.Nodes[1].FlowCost, p.Links[0].FlowCost = p.Nodes[1].FlowCost.With(fid, c), p.Links[0].FlowCost.With(fid, c)
	}
	return p
}

// isArmed reports whether Step sweeps the engine's node or link id.
func isArmed(armed []int32, id int32) bool {
	_, ok := slices.BinarySearch(armed, id)
	return ok
}

// sweptUsage sets the rates (0 for a flow that is inactive) and returns
// what the sweep itself computes for node 1 and link 0: admitNode's used and
// linkUsageItem's sum.
func sweptUsage(e *Engine, rates []float64, active []bool) (node, link float64) {
	copy(e.rates, rates)
	copy(e.active, active)
	out := admitNode(e.p, e.ix, 1, e.rates, nil, e.active, e.consumers, e.sh[0].scratch, &e.rank, &e.vc, e.popEpoch, 1)
	l0 := e.links.at(0)
	e.links.forced[l0] = true
	skipped := 0
	e.linkUsageItem(l0, &skipped)
	return out.used, e.links.used[l0]
}

// TestParkedMeansTheSweepCannotBind: the arming rule compares capacity with
// the bound the sweep would have computed — the same products, summed in the
// same order — not with the real-number sum. Capacities are placed within an
// ulp of both, where the two disagree: a constraint must be parked when the
// float sum fits although the exact sum does not (whatever rates Step picks
// in the box, active or not, the usage it computes fits too), and armed when
// the float sum does not fit although the exact sum does (at RateMax the
// computed usage really exceeds capacity, and Equation 13 would price it).
func TestParkedMeansTheSweepCannotBind(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	exact := func(costs, rateMax []float64) *big.Float {
		sum := new(big.Float).SetPrec(2000)
		for k := range costs {
			term := new(big.Float).SetPrec(2000).SetFloat64(costs[k])
			sum.Add(sum, term.Mul(term, new(big.Float).SetPrec(2000).SetFloat64(rateMax[k])))
		}
		return sum
	}
	var parkedOverExact, armedUnderExact, parkedCases, armedCases int
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(5)
		costs, rateMax := make([]float64, k), make([]float64, k)
		for i := range costs {
			// Tenths and thirds round in every product and every partial sum.
			costs[i] = float64(1+rng.Intn(9)) / 10
			rateMax[i] = float64(1+rng.Intn(30)) / 3
		}
		floatSum := 0.0
		for i := range costs {
			floatSum += costs[i] * rateMax[i]
		}
		real := exact(costs, rateMax)
		for _, capacity := range []float64{
			math.Nextafter(floatSum, 0), floatSum, math.Nextafter(floatSum, math.Inf(1)), 2 * floatSum, floatSum / 2,
		} {
			e, err := NewEngine(parkProblem(costs, rateMax, capacity), Config{Adaptive: trial%2 == 0, workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			nodes, links := Armed(e)
			nodeArmed, linkArmed := isArmed(nodes, 1), isArmed(links, 0)
			if nodeArmed != linkArmed {
				t.Fatalf("costs %v RateMax %v capacity %v: node armed %v, link armed %v on the same costs",
					costs, rateMax, capacity, nodeArmed, linkArmed)
			}
			exactFits := real.Cmp(new(big.Float).SetFloat64(capacity)) <= 0
			allActive := make([]bool, k)
			for i := range allActive {
				allActive[i] = true
			}
			if nodeArmed {
				armedCases++
				// Arming was needed: at RateMax the sweep's own sums overflow.
				node, link := sweptUsage(e, rateMax, allActive)
				if !(node > capacity && link > capacity) {
					t.Fatalf("costs %v RateMax %v capacity %v: armed, but the sweep computes %v and %v at RateMax",
						costs, rateMax, capacity, node, link)
				}
				if exactFits {
					armedUnderExact++
				}
			} else {
				parkedCases++
				if !exactFits {
					parkedOverExact++
				}
				if n1, l0 := e.nodes.at(1), e.links.at(0); e.nodes.forced[n1] || e.links.forced[l0] {
					t.Fatalf("a parked constraint is left forced: node %v, link %v", e.nodes.forced[n1], e.links.forced[l0])
				}
				// Parking was safe: no rates of the box, with any flows
				// inactive (pinned to 0), make the sweep compute more.
				for try := 0; try < 8; try++ {
					rates, active := make([]float64, k), make([]bool, k)
					for i := range rates {
						active[i] = try < 2 || rng.Intn(3) > 0
						switch {
						case !active[i]:
						case try%2 == 0:
							rates[i] = rateMax[i]
						default:
							rates[i] = rateMax[i]/4 + rng.Float64()*(rateMax[i]-rateMax[i]/4)
						}
					}
					if node, link := sweptUsage(e, rates, active); !(node <= capacity && link <= capacity) {
						t.Fatalf("costs %v RateMax %v capacity %v: parked, but rates %v compute %v and %v",
							costs, rateMax, capacity, rates, node, link)
					}
				}
			}
			e.Close()
		}
	}
	if parkedOverExact == 0 || armedUnderExact == 0 || parkedCases == 0 || armedCases == 0 {
		t.Fatalf("vacuous: %d parked (%d with the exact sum over capacity), %d armed (%d with the exact sum fitting)",
			parkedCases, parkedOverExact, armedCases, armedUnderExact)
	}
}

// TestInactiveFlowsCountAtRateMax: reactivating a flow re-arms nothing, so a
// flow that is inactive when the engine re-arms still counts with its
// RateMax against the bound.
func TestInactiveFlowsCountAtRateMax(t *testing.T) {
	// Two flows of cost 1 and RateMax 10 on capacity 15: either alone fits.
	p := parkProblem([]float64{1, 1}, []float64{10, 10}, 15)
	e, err := NewEngine(p, Config{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetFlowActive(1, false)
	if err := e.Reset(p); err != nil {
		t.Fatal(err)
	}
	if nodes, links := Armed(e); !isArmed(nodes, 1) || !isArmed(links, 0) {
		t.Fatalf("with flow 1 inactive the engine armed nodes %v and links %v; node 1 and link 0 can bind once it is back", nodes, links)
	}
}

// TestNonFiniteNeverParks: a NaN or infinite capacity or RateMax arms — the
// comparison is written so that a NaN anywhere says "can bind" — directly on
// the predicate and through NewEngine; SetNodeCapacity refuses a NaN.
func TestNonFiniteNeverParks(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	flows := []model.Flow{{RateMax: 10}, {RateMax: inf}, {RateMax: nan}}
	one := []float64{1}
	for _, c := range []struct {
		name     string
		flow     model.FlowID
		cost     float64
		capacity float64
		want     bool
	}{
		{"finite and fitting", 0, 1, 10, true},
		{"finite and one ulp short", 0, 1, math.Nextafter(10, 0), false},
		{"NaN capacity", 0, 1, nan, false},
		{"+Inf capacity", 0, 1, inf, false},
		{"-Inf capacity", 0, 1, -inf, false},
		{"+Inf RateMax", 1, 1, 1e300, false},
		{"+Inf RateMax, +Inf capacity", 1, 1, inf, false},
		{"NaN RateMax", 2, 1, 1e300, false},
		{"NaN cost", 0, nan, 1e300, false},
	} {
		one[0] = c.cost
		if got := slack([]model.FlowID{c.flow}, one, flows, c.capacity); got != c.want {
			t.Errorf("%s: slack = %v, want %v", c.name, got, c.want)
		}
	}

	// Validate lets +Inf through as a capacity and as a RateMax.
	for _, c := range []struct {
		name              string
		rateMax, capacity float64
	}{
		{"+Inf capacity", 10, inf},
		{"+Inf RateMax", inf, 1e300},
	} {
		e, err := NewEngine(parkProblem([]float64{1}, []float64{c.rateMax}, c.capacity), Config{workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if nodes, links := Armed(e); !isArmed(nodes, 1) || !isArmed(links, 0) {
			t.Errorf("%s: armed nodes %v, links %v; node 1 and link 0 must be", c.name, nodes, links)
		}
		e.Close()
	}
	// SetNodeCapacity refuses a NaN capacity, as Validate does, so it never
	// reaches the arming rule or Eq. 12.
	e, err := NewEngine(parkProblem([]float64{1}, []float64{10}, 100), Config{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if nodes, _ := Armed(e); isArmed(nodes, 1) {
		t.Fatal("node 1 has ten times the room its flow can use and is armed")
	}
	if err := e.SetNodeCapacity(1, nan); !errors.Is(err, model.ErrInvalid) {
		t.Fatalf("NaN capacity: err %v, want model.ErrInvalid", err)
	}
	if nodes, _ := Armed(e); isArmed(nodes, 1) || e.p.Nodes[1].Capacity != 100 {
		t.Errorf("the refused NaN capacity armed node 1 (%v) or reached the problem (%v)",
			isArmed(nodes, 1), e.p.Nodes[1].Capacity)
	}
}

// mutatorProblem is parkProblem with node 1 binding, plus a node 3 no flow
// reaches — the plan does not list it — holding a demand-less class of flow
// 0, the off-tree shape two-stage pruning leaves.
func mutatorProblem() *model.Problem {
	p := parkProblem([]float64{2, 3}, []float64{10, 10}, 30)
	p.Nodes = append(p.Nodes, model.Node{ID: 3, Capacity: 100})
	p.Classes = append(p.Classes, model.Class{ID: 2, Flow: 0, Node: 3,
		CostPerConsumer: 1, Utility: utility.NewLog(10)})
	return p
}

// TestMutatorsRefuseWhatValidateRefuses: SetNodeCapacity and SetClassDemand
// refuse what model.Validate refuses, with model.ErrInvalid, and a refusal
// touches nothing — not the problem, the forced flags, the armed lists or
// settled — so the ten Steps after it are bit-identical to those of a twin
// engine that was never asked. A new capacity for a node the plan does not
// list is taken, and leaves it as idle as it was.
func TestMutatorsRefuseWhatValidateRefuses(t *testing.T) {
	type state struct {
		capacity                           float64
		demand                             int
		flowForced, nodeForced, linkForced []bool
		armedNodes, armedLinks             []int32
		settled                            bool
	}
	stateOf := func(e *Engine) state {
		return state{e.p.Nodes[1].Capacity, e.p.Classes[2].MaxConsumers,
			slices.Clone(e.flowForced), slices.Clone(e.nodes.forced), slices.Clone(e.links.forced),
			slices.Clone(e.nodes.lists[0]), slices.Clone(e.links.lists[0]), e.settled}
	}
	// twins returns two engines solved to the same settled state.
	twins := func() (e, twin *Engine) {
		t.Helper()
		var err error
		if e, err = NewEngine(mutatorProblem(), Config{Adaptive: true, workers: 1}); err != nil {
			t.Fatal(err)
		}
		if twin, err = NewEngine(mutatorProblem(), Config{Adaptive: true, workers: 1}); err != nil {
			t.Fatal(err)
		}
		if r, rt := e.Solve(250), twin.Solve(250); !r.Converged || !rt.Converged {
			t.Fatal("the fixture did not converge")
		}
		return e, twin
	}
	stepTogether := func(name string, e, twin *Engine) {
		t.Helper()
		for it := 1; it <= 10; it++ {
			if r, rt := e.Step(), twin.Step(); !sameStep(r, rt) {
				t.Fatalf("%s: Step %d %+v, untouched twin %+v", name, it, r, rt)
			}
			assertStateEqual(t, it, 1, twin, e)
		}
	}

	for _, c := range []struct {
		name   string
		mutate func(*Engine) error
	}{
		{"NaN capacity", func(e *Engine) error { return e.SetNodeCapacity(1, math.NaN()) }},
		{"-Inf capacity", func(e *Engine) error { return e.SetNodeCapacity(1, math.Inf(-1)) }},
		{"zero capacity", func(e *Engine) error { return e.SetNodeCapacity(1, 0) }},
		{"negative demand", func(e *Engine) error { return e.SetClassDemand(2, -1) }},
		{"off-tree demand", func(e *Engine) error { return e.SetClassDemand(2, 1) }},
	} {
		e, twin := twins()
		before := stateOf(e)
		if err := c.mutate(e); !errors.Is(err, model.ErrInvalid) {
			t.Fatalf("%s: err %v, want model.ErrInvalid", c.name, err)
		}
		if after := stateOf(e); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: the refusal changed the engine: %+v, before %+v", c.name, after, before)
		}
		if err := model.Validate(e.Problem()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stepTogether(c.name, e, twin)
		e.Close()
		twin.Close()
	}

	e, twin := twins()
	defer e.Close()
	defer twin.Close()
	if e.nodes.at(3) >= 0 {
		t.Fatal("the plan lists node 3, which no flow reaches")
	}
	if err := e.SetNodeCapacity(3, 50); err != nil {
		t.Fatal(err)
	}
	if err := CheckIdleCaches(e); err != nil {
		t.Fatalf("after a new capacity for an unlisted node: %v", err)
	}
	stepTogether("unlisted node's capacity", e, twin)
}

// TestWakeForcesARecompute: a constraint parked since NewEngine is not
// forced, and the wake forces it, so the woken node's first Step recomputes
// its usage instead of reusing what was cached before it slept; waking
// allocates nothing once its flows' views have held it, and neither does the
// re-arm that parks it again.
func TestWakeForcesARecompute(t *testing.T) {
	p := parkProblem([]float64{2, 3}, []float64{10, 10}, 1000)
	e, err := NewEngine(p, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 20; i++ {
		e.Step()
	}
	n1, l0 := e.nodes.at(1), e.links.at(0)
	nodes, links := Armed(e)
	if isArmed(nodes, 1) || isArmed(links, 0) || e.nodes.forced[n1] || e.links.forced[l0] {
		t.Fatalf("armed nodes %v links %v, forced %v %v; node 1 and link 0 should be parked and clean",
			nodes, links, e.nodes.forced[n1], e.links.forced[l0])
	}
	if e.nodes.prices[n1] != 0 || e.links.prices[l0] != 0 || e.gamma.val[n1] != e.gamma.max {
		t.Fatalf("a parked constraint moved: prices %v %v, gamma %v", e.nodes.prices[n1], e.links.prices[l0], e.gamma.val[n1])
	}
	// Whatever the cache holds from before, the wake must not trust it.
	e.nodes.used[n1] = 12345
	if err := e.SetNodeCapacity(1, 30); err != nil { // bound 2·10 + 3·10 = 50
		t.Fatal(err)
	}
	if nodes, _ := Armed(e); !isArmed(nodes, 1) || !e.nodes.forced[n1] {
		t.Fatalf("capacity 30 under bound 50: armed nodes %v, forced %v", nodes, e.nodes.forced[n1])
	}
	e.Step()
	if want := 2*e.rates[0] + 3*e.rates[1]; e.nodes.used[n1] != want || e.nodes.forced[n1] {
		t.Fatalf("after the wake's Step node 1 caches usage %v (forced %v), its flows use %v", e.nodes.used[n1], e.nodes.forced[n1], want)
	}

	if err := e.SetNodeCapacity(1, 1000); err != nil {
		t.Fatal(err)
	}
	if nodes, _ := Armed(e); !isArmed(nodes, 1) {
		t.Fatal("SetNodeCapacity parked node 1; only a re-arm may")
	}

	// Node 1 overloaded at capacity 30 and is priced now; the park-and-wake
	// cycle is counted on an engine whose node never was.
	fresh, err := NewEngine(p, Config{Adaptive: true, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fresh1 := fresh.nodes.at(1)
	if allocs := testing.AllocsPerRun(20, func() {
		fresh.rearm(nil)
		if slices.Contains(fresh.nodes.lists[0], fresh1) {
			t.Fatal("the re-arm left node 1 armed")
		}
		if err := fresh.SetNodeCapacity(1, 30); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(fresh.nodes.lists[0], fresh1) {
			t.Fatal("capacity 30 left node 1 parked")
		}
		if err := fresh.SetNodeCapacity(1, 1000); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per park-and-wake, want 0", allocs)
	}
}

// TestClimbingGammaStaysArmed: observing a zero gap leaves an adaptive
// stepsize alone only at the ceiling; below it the controller adds its step
// every iteration, so a node that could otherwise be parked stays armed until
// it is there — beside the arm-everything oracle, γ for γ.
func TestClimbingGammaStaysArmed(t *testing.T) {
	p := parkProblem([]float64{2, 3}, []float64{10, 10}, 1000)
	cfg := Config{Adaptive: true, workers: 1}
	live, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	full, err := NewEngine(p.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	SweepAll(full)
	if nodes, _ := Armed(live); isArmed(nodes, 1) {
		t.Fatal("node 1 starts at the ceiling and should be parked")
	}
	const below = DefaultGammaMax / 2
	live.gamma.val[live.nodes.at(1)], full.gamma.val[full.nodes.at(1)] = below, below
	live.rearm(nil)
	SweepAll(full)
	if nodes, _ := Armed(live); !isArmed(nodes, 1) {
		t.Fatalf("node 1 at γ %v under the ceiling %v was parked", below, live.gamma.max)
	}
	for i := 0; i < 80; i++ {
		rf, rl := full.Step(), live.Step()
		if rf.Utility != rl.Utility || !slices.Equal(full.Gammas(), live.Gammas()) ||
			!slices.Equal(full.NodePrices(), live.NodePrices()) {
			t.Fatalf("Step %d: γ %v prices %v utility %v; oracle %v %v %v",
				i+1, live.Gammas(), live.NodePrices(), rl.Utility, full.Gammas(), full.NodePrices(), rf.Utility)
		}
	}
	if g := live.Gammas()[1]; g != live.gamma.max {
		t.Fatalf("γ of node 1 is %v after 80 Steps, want the ceiling", g)
	}
	if err := live.Reset(p); err != nil {
		t.Fatal(err)
	}
	if nodes, _ := Armed(live); isArmed(nodes, 1) {
		t.Fatal("node 1 reached the ceiling and the re-arm did not park it")
	}
}

// TestWakeClearsAStaleEpoch: a parked constraint keeps whatever price epoch
// it had when a re-arm parked it, and nothing reads it while it is parked.
// The wake must clear it: node 1's price reaches 0 at some iteration K of a
// decay, a Reset parks it there, and after the wake no Step may take that
// old K for a price move — DirtyFlows stays the full sweep's at every Step,
// K+1 included.
func TestWakeClearsAStaleEpoch(t *testing.T) {
	p := parkProblem([]float64{2, 3}, []float64{10, 10}, 30)
	p.Links[0].Capacity = 1e6
	cfg := Config{Gamma: 0.75, workers: 1}
	live, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	full, err := NewEngine(p.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	SweepAll(full)
	steps := func(tag string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			rl, rf := live.Step(), full.Step()
			if rl.DirtyFlows != rf.DirtyFlows || rl.Utility != rf.Utility {
				t.Fatalf("%s, Step %d: DirtyFlows %d utility %v, full sweep %d %v",
					tag, rl.Iteration, rl.DirtyFlows, rl.Utility, rf.DirtyFlows, rf.Utility)
			}
		}
	}
	reset := func() {
		t.Helper()
		if err := live.Reset(p); err != nil {
			t.Fatal(err)
		}
		if err := full.Reset(p.Clone()); err != nil {
			t.Fatal(err)
		}
		SweepAll(full)
	}
	n1 := live.nodes.at(1)
	steps("overloaded", 40)
	if live.nodes.prices[n1] == 0 {
		t.Fatal("node 1 holds no price at capacity 30")
	}
	// Room for everything: armed while its price decays to 0.
	p.Nodes[1].Capacity = 1000
	reset()
	for live.nodes.prices[n1] != 0 {
		if live.iteration > 5000 {
			t.Fatalf("node 1's price %g has not reached 0", live.nodes.prices[n1])
		}
		steps("decaying", 1)
	}
	k := live.nodes.epochs[n1]
	steps("decayed", 5)
	reset()
	if nodes, _ := Armed(live); isArmed(nodes, 1) {
		t.Fatal("the re-arm left node 1 armed at price 0 and capacity 1000")
	}
	// Flow 1 off: node 1 uses 20 of a capacity 30 under its bound 50, so it
	// wakes and its price stays 0.
	for _, e := range []*Engine{live, full} {
		e.SetFlowActive(1, false)
		if err := e.SetNodeCapacity(1, 30); err != nil {
			t.Fatal(err)
		}
	}
	if nodes, _ := Armed(live); !isArmed(nodes, 1) {
		t.Fatal("capacity 30 under the bound 50 left node 1 parked")
	}
	steps("woken", k+5)
	if live.nodes.prices[n1] != 0 {
		t.Fatalf("node 1 is priced %g after the wake; the test needs it at 0", live.nodes.prices[n1])
	}
}
