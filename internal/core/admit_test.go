package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// admitProblem: one node, two flows, three classes with controllable
// utilities and costs for exercising the greedy allocation.
func admitProblem() (*model.Problem, *model.Index) {
	p := &model.Problem{
		Flows: []model.Flow{
			{ID: 0, Source: 0, RateMin: 1, RateMax: 1000},
			{ID: 1, Source: 0, RateMin: 1, RateMax: 1000},
		},
		Nodes: []model.Node{{
			ID: 0, Capacity: 1000,
			FlowCost: map[model.FlowID]float64{0: 2, 1: 3},
		}},
		Classes: []model.Class{
			// At r=10: U = 100*log(11) ~ 239.8, unit cost 10 => BC ~ 23.98.
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 5, CostPerConsumer: 1, Utility: utility.NewLog(100)},
			// At r=10: U = 10*log(11) ~ 24, unit cost 20 => BC ~ 1.2.
			{ID: 1, Flow: 0, Node: 0, MaxConsumers: 50, CostPerConsumer: 2, Utility: utility.NewLog(10)},
			// At r=10: U = 50*log(11) ~ 119.9, unit cost 40 => BC ~ 3.
			{ID: 2, Flow: 1, Node: 0, MaxConsumers: 50, CostPerConsumer: 4, Utility: utility.NewLog(50)},
		},
	}
	return p, model.NewIndex(p)
}

func admitAll(t *testing.T, p *model.Problem, ix *model.Index, rates []float64) ([]int, admitResult) {
	t.Helper()
	consumers := make([]int, len(p.Classes))
	active := make([]bool, len(p.Flows))
	for i := range active {
		active[i] = true
	}
	res := admitNode(p, ix, 0, rates, active, consumers, nil, nil, nil, nil, 0)
	return consumers, res
}

func TestAdmitGreedyOrder(t *testing.T) {
	p, ix := admitProblem()
	rates := []float64{10, 10}
	consumers, res := admitAll(t, p, ix, rates)

	// Budget = 1000 - (2*10 + 3*10) = 950.
	// Greedy order by BC: class 0 (23.98), class 2 (3.0), class 1 (1.2).
	// Class 0: 5 consumers (max) * 10 = 50, budget 900.
	// Class 2: floor(900/40) = 22 consumers, budget 900-880=20.
	// Class 1: floor(20/20) = 1 consumer, budget 0.
	if consumers[0] != 5 || consumers[2] != 22 || consumers[1] != 1 {
		t.Errorf("consumers = %v, want [5 1 22]", consumers)
	}
	wantUsed := 50.0 + (2*10 + 3*10) + 880 + 20
	if res.used != wantUsed {
		t.Errorf("used = %g, want %g", res.used, wantUsed)
	}
	if res.used > p.Nodes[0].Capacity {
		t.Errorf("greedy exceeded capacity: %g > %g", res.used, p.Nodes[0].Capacity)
	}
}

func TestAdmitBestUnsatisfied(t *testing.T) {
	p, ix := admitProblem()
	rates := []float64{10, 10}
	_, res := admitAll(t, p, ix, rates)

	// Classes 1 and 2 are partially admitted; class 2 has the higher BC.
	wantBC := p.Classes[2].Utility.Value(10) / (4 * 10)
	if diff := res.bestUnsatisfied - wantBC; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("bestUnsatisfied = %g, want %g", res.bestUnsatisfied, wantBC)
	}
}

func TestAdmitAllSatisfiedZeroBC(t *testing.T) {
	p, ix := admitProblem()
	// Tiny populations so everything fits.
	for j := range p.Classes {
		p.Classes[j].MaxConsumers = 1
	}
	_, res := admitAll(t, p, ix, []float64{10, 10})
	if res.bestUnsatisfied != 0 {
		t.Errorf("bestUnsatisfied = %g, want 0 when all classes full", res.bestUnsatisfied)
	}
}

func TestAdmitFlowCostsExceedCapacity(t *testing.T) {
	p, ix := admitProblem()
	// 2*300 + 3*300 = 1500 > 1000: the paper's boundary case, all n_j = 0.
	consumers, res := admitAll(t, p, ix, []float64{300, 300})
	for j, n := range consumers {
		if n != 0 {
			t.Errorf("consumers[%d] = %d, want 0", j, n)
		}
	}
	if res.used != 1500 {
		t.Errorf("used = %g, want 1500 (flow costs only)", res.used)
	}
	// Unsatisfied classes still report a positive best BC so the price
	// can reflect the foregone admission benefit.
	if res.bestUnsatisfied <= 0 {
		t.Errorf("bestUnsatisfied = %g, want > 0", res.bestUnsatisfied)
	}
}

func TestAdmitInactiveFlowSkipped(t *testing.T) {
	p, ix := admitProblem()
	consumers := make([]int, len(p.Classes))
	consumers[2] = 17 // stale population from when flow 1 was active
	active := []bool{true, false}
	res := admitNode(p, ix, 0, []float64{10, 0}, active, consumers, nil, nil, nil, nil, 0)

	if consumers[2] != 0 {
		t.Errorf("inactive flow class population = %d, want 0", consumers[2])
	}
	if consumers[0] != 5 {
		t.Errorf("active class 0 = %d, want 5", consumers[0])
	}
	// Flow 1's flow-node cost must not be charged.
	// Budget = 1000 - 2*10 = 980. Class 0: 50. Class 1: floor(930/20)=46.
	if consumers[1] != 46 {
		t.Errorf("active class 1 = %d, want 46", consumers[1])
	}
	wantUsed := 20.0 + 50 + 920
	if res.used != wantUsed {
		t.Errorf("used = %g, want %g", res.used, wantUsed)
	}
}

func TestAdmitDeterministicTieBreak(t *testing.T) {
	// Two identical classes: the lower ID must be filled first.
	p := &model.Problem{
		Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 1, RateMax: 100}},
		Nodes: []model.Node{{ID: 0, Capacity: 100, FlowCost: map[model.FlowID]float64{0: 1}}},
		Classes: []model.Class{
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 10, CostPerConsumer: 3, Utility: utility.NewLog(10)},
			{ID: 1, Flow: 0, Node: 0, MaxConsumers: 10, CostPerConsumer: 3, Utility: utility.NewLog(10)},
		},
	}
	ix := model.NewIndex(p)
	consumers := make([]int, 2)
	// Budget = 100 - 10 = 90; unit cost 30; 3 consumers fit.
	admitNode(p, ix, 0, []float64{10}, []bool{true}, consumers, nil, nil, nil, nil, 0)
	if consumers[0] != 3 || consumers[1] != 0 {
		t.Errorf("consumers = %v, want [3 0] (deterministic tie-break)", consumers)
	}
}

func TestAdmitSkipsNonPositiveUtility(t *testing.T) {
	// A utility that is zero at the current rate must never be admitted:
	// it would consume resource for no objective gain.
	p := &model.Problem{
		Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 1, RateMax: 100}},
		Nodes: []model.Node{{ID: 0, Capacity: 1000, FlowCost: map[model.FlowID]float64{0: 1}}},
		Classes: []model.Class{
			// Hyperbolic value at r is tiny but positive; LinearCap at
			// r=0... instead use a shifted log that is zero at r=1:
			// log(0+1)=0 with Shift -> Value(1)=log(1)=0.
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 10, CostPerConsumer: 1,
				Utility: utility.Log{Scale: 5, Shift: 0.0001}},
			{ID: 1, Flow: 0, Node: 0, MaxConsumers: 10, CostPerConsumer: 1,
				Utility: utility.NewLog(5)},
		},
	}
	ix := model.NewIndex(p)
	consumers := make([]int, 2)
	// At r = 0.9999..., class 0's utility log(0.0001+1) ~ 1e-4 > 0 — use
	// a rate where it is negative: r such that Shift + r < 1, i.e. r=0.5.
	// Rate bounds say RateMin=1; craft rate slice directly (admitNode
	// trusts the caller's rates).
	admitNode(p, ix, 0, []float64{0.5}, []bool{true}, consumers, nil, nil, nil, nil, 0)
	if consumers[0] != 0 {
		t.Errorf("negative-utility class admitted %d consumers", consumers[0])
	}
	if consumers[1] == 0 {
		t.Error("positive-utility class not admitted")
	}
}

func TestAdmitZeroMaxConsumers(t *testing.T) {
	p, ix := admitProblem()
	p.Classes[0].MaxConsumers = 0
	consumers, res := admitAll(t, p, ix, []float64{10, 10})
	if consumers[0] != 0 {
		t.Errorf("class with nMax=0 got %d consumers", consumers[0])
	}
	// A class with nMax=0 can never be "unsatisfied" in the Equation 11
	// sense (n_j < n_j^max is unsatisfiable), so it must not set the BC.
	wantBC := p.Classes[2].Utility.Value(10) / 40
	if res.bestUnsatisfied > wantBC+1e-12 {
		t.Errorf("bestUnsatisfied = %g includes nMax=0 class", res.bestUnsatisfied)
	}
}

// TestAdmitHugeQuotientClampsToDemand: a unit cost of 1e-21 under a budget
// of 1e9 divides to 1e30 consumers, past what an int holds. Admission must
// clamp that to the class's demand before converting — amd64 turns the
// out-of-range conversion into -2^63 — on every path that admits: the
// engine, the node agent's allocator and the greedy seeding.
func TestAdmitHugeQuotientClampsToDemand(t *testing.T) {
	problem := func() *model.Problem {
		return &model.Problem{
			Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 1e-12, RateMax: 1e-12}},
			Nodes: []model.Node{{ID: 0, Capacity: 1e9, FlowCost: map[model.FlowID]float64{0: 1}}},
			Classes: []model.Class{
				{ID: 0, Flow: 0, Node: 0, MaxConsumers: 5, CostPerConsumer: 1e-9, Utility: utility.NewLog(10)},
			},
		}
	}

	e, err := NewEngine(problem(), Config{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	if got := e.Allocation().Consumers[0]; got != 5 {
		t.Errorf("Engine.Step admitted %d consumers, want 5", got)
	}

	p := problem()
	ix := model.NewIndex(p)
	consumers := make([]int, 1)
	out := NewNodeAllocator(p, ix, 0).Allocate([]float64{1e-12}, consumers)
	if consumers[0] != 5 || out.BestUnsatisfied != 0 {
		t.Errorf("NodeAllocator.Allocate admitted %d consumers, best unsatisfied %g; want 5, 0",
			consumers[0], out.BestUnsatisfied)
	}

	if pops, _ := GreedyPopulations(p, ix, []float64{1e-12}); pops[0] != 5 {
		t.Errorf("GreedyPopulations admitted %d consumers, want 5", pops[0])
	}
}

// nanBelow is a log utility whose value is NaN below a rate, so the
// benefit-cost comparator stops being a total order there.
type nanBelow struct {
	utility.Log
	rate float64
}

func (u nanBelow) Value(r float64) float64 {
	if r < u.rate {
		return math.NaN()
	}
	return u.Log.Value(r)
}

// TestCarriedRankingMatchesIndexOrder is the oracle of the carried
// ranking: random nodes run through many rate moves, each time admitted
// from the order the last admission left — in one order shared by every
// node, the Engine's layout, and in one per node, a NodeAllocator's — and,
// separately, from index order (a nil rank, what GreedyPopulations does).
// Populations, used and bestUnsatisfied must be identical — the sorted
// sequence is unique whatever the input order — through benefit-cost ties
// broken by id (equal ranks and costs on one flow), classes of inactive
// flows, non-positive utilities (a log shifted below 1 at low rates) and
// a NaN-valued utility, where index order is rebuilt before sorting. The
// carried order stays a permutation of each node's own classes, and the
// index's class lists are never written.
func TestCarriedRankingMatchesIndexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		nFlows, nNodes := 1+rng.Intn(5), 1+rng.Intn(3)
		p := &model.Problem{}
		for i := 0; i < nFlows; i++ {
			p.Flows = append(p.Flows, model.Flow{ID: model.FlowID(i), RateMin: 0.01, RateMax: 100})
		}
		for b := 0; b < nNodes; b++ {
			costs := map[model.FlowID]float64{}
			for i := 0; i < nFlows; i++ {
				costs[model.FlowID(i)] = float64(rng.Intn(3))
			}
			p.Nodes = append(p.Nodes, model.Node{ID: model.NodeID(b), Capacity: 50 + 500*rng.Float64(), FlowCost: costs})
		}
		nClasses := 1 + rng.Intn(30)
		nanClass := -1
		if trial%4 == 0 {
			nanClass = rng.Intn(nClasses)
		}
		for j := 0; j < nClasses; j++ {
			var u utility.Function = utility.NewLog(float64(1 + rng.Intn(3)))
			switch {
			case j == nanClass:
				u = nanBelow{Log: utility.NewLog(2), rate: 1}
			case rng.Intn(5) == 0:
				u = utility.Log{Scale: 3, Shift: 0.5}
			}
			p.Classes = append(p.Classes, model.Class{
				ID: model.ClassID(j), Flow: model.FlowID(rng.Intn(nFlows)), Node: model.NodeID(rng.Intn(nNodes)),
				MaxConsumers: rng.Intn(20), CostPerConsumer: float64(1 + rng.Intn(2)), Utility: u,
			})
		}
		ix := model.NewIndex(p)
		lists := make([][]model.ClassID, nNodes)
		for b := range lists {
			lists[b] = slices.Clone(ix.ClassesByNode(model.NodeID(b)))
		}

		// shared is the Engine's layout, one order over every node's slots;
		// own[b] a NodeAllocator's, room for node b alone.
		shared := ranking{order: make([]model.ClassID, nClasses)}
		for j := range shared.order {
			shared.order[j] = model.ClassID(j)
		}
		own := make([]ranking, nNodes)
		for b := range own {
			own[b] = ranking{order: slices.Clone(lists[b]), at: make([]model.ClassID, len(lists[b]))}
			for k := range own[b].at {
				own[b].at[k] = model.ClassID(k)
			}
		}
		scratch := make([]classBC, 0, nClasses)
		carried, alone, fresh := make([]int, nClasses), make([]int, nClasses), make([]int, nClasses)
		rates := make([]float64, nFlows)
		active := make([]bool, nFlows)
		for i := range rates {
			rates[i] = 0.1 + 10*rng.Float64()
			active[i] = true
		}
		for move := 0; move < 60; move++ {
			for i := range rates {
				switch rng.Intn(10) {
				case 0:
					rates[i] = 0.1 + 10*rng.Float64()
				case 1:
					active[i] = !active[i]
				default:
					rates[i] *= 1 + 0.05*(rng.Float64()-0.5)
				}
			}
			for b := 0; b < nNodes; b++ {
				bid := model.NodeID(b)
				want := admitNode(p, ix, bid, rates, active, fresh, nil, nil, nil, nil, 0)
				for _, c := range []struct {
					name      string
					rank      *ranking
					consumers []int
					slots     []model.ClassID
				}{
					{"shared", &shared, carried, lists[b]},
					{"own", &own[b], alone, own[b].at},
				} {
					got := admitNode(p, ix, bid, rates, active, c.consumers, scratch, c.rank, nil, nil, 0)
					if !slices.Equal(c.consumers, fresh) ||
						math.Float64bits(got.used) != math.Float64bits(want.used) ||
						math.Float64bits(got.bestUnsatisfied) != math.Float64bits(want.bestUnsatisfied) {
						t.Fatalf("trial %d move %d node %d: %s order %v used %v best %v; index order %v used %v best %v",
							trial, move, b, c.name, c.consumers, got.used, got.bestUnsatisfied, fresh, want.used, want.bestUnsatisfied)
					}
					var held []model.ClassID
					for _, slot := range c.slots {
						held = append(held, c.rank.order[slot])
					}
					slices.Sort(held)
					if !slices.Equal(held, lists[b]) {
						t.Fatalf("trial %d move %d node %d: %s order holds %v, node's classes are %v",
							trial, move, b, c.name, held, lists[b])
					}
				}
			}
		}
		for b := range lists {
			if got := ix.ClassesByNode(model.NodeID(b)); !slices.Equal(got, lists[b]) {
				t.Fatalf("trial %d: ClassesByNode(%d) = %v, was %v", trial, b, got, lists[b])
			}
		}
	}
}
