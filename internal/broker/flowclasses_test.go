package broker

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
	"repro/internal/workload"
)

// TestFlowClassesMatchIndex: the broker's flow → classes lists are
// model.Index.ClassesByFlow, list for list and in the same ascending
// order, on seeded random problems (class IDs flow-major, and shuffled so
// that one flow's classes interleave with the others') and on the metro
// workload the demand_churn benchmark enacts on.
func TestFlowClassesMatchIndex(t *testing.T) {
	problems := map[string]*model.Problem{"metro-small": workload.MetroSmall()}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.RandomConfig{Flows: 1 + rng.Intn(40), Nodes: 1 + rng.Intn(12), ClassesPerFlow: 1 + rng.Intn(6)}
		problems[fmt.Sprint("random", seed)] = workload.Random(rng, cfg)
		shuffled := workload.Random(rng, cfg)
		rng.Shuffle(len(shuffled.Classes), func(a, b int) {
			shuffled.Classes[a], shuffled.Classes[b] = shuffled.Classes[b], shuffled.Classes[a]
		})
		for j := range shuffled.Classes {
			shuffled.Classes[j].ID = model.ClassID(j)
		}
		problems[fmt.Sprint("shuffled", seed)] = shuffled
	}
	for name, p := range problems {
		br, err := New(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ix := model.NewIndex(p)
		for i := range p.Flows {
			if got, want := br.classesOf(model.FlowID(i)), ix.ClassesByFlow(model.FlowID(i)); !slices.Equal(got, want) {
				t.Errorf("%s flow %d: classes %v, index has %v", name, i, got, want)
			}
		}
	}
}

// idleLinkProblem is the shape of the link_failure benchmark's problem as
// the broker sees it: 200 flows of three classes over 10,000 nodes and
// `links` links (at least 400), of which each flow crosses one and the
// rest carry nothing.
func idleLinkProblem(links int) *model.Problem {
	const nodes, flows, perFlow = 10_000, 200, 3
	p := &model.Problem{Name: "idle-links", Nodes: make([]model.Node, nodes), Links: make([]model.Link, links)}
	for b := range p.Nodes {
		p.Nodes[b] = model.Node{ID: model.NodeID(b), Capacity: 3000}
	}
	for l := range p.Links {
		p.Links[l] = model.Link{ID: model.LinkID(l), From: model.NodeID(l % nodes), To: model.NodeID((l + 1) % nodes), Capacity: 1e5}
	}
	for i := 0; i < flows; i++ {
		fid, src, sub := model.FlowID(i), model.NodeID(2*i), model.NodeID(2*i+1)
		p.Flows = append(p.Flows, model.Flow{ID: fid, Source: src, RateMin: 1, RateMax: 100})
		for _, b := range []model.NodeID{src, sub} {
			p.Nodes[b].FlowCost = model.CostsOf(map[model.FlowID]float64{fid: 2})
		}
		p.Links[2*i].FlowCost = model.CostsOf(map[model.FlowID]float64{fid: 1}) // src → sub
		for k := 0; k < perFlow; k++ {
			p.Classes = append(p.Classes, model.Class{
				ID: model.ClassID(len(p.Classes)), Flow: fid, Node: sub,
				MaxConsumers: 30, CostPerConsumer: 5, Utility: utility.NewLog(10),
			})
		}
	}
	return p
}

// TestNewFootprint: what New keeps follows the problem's flows and classes,
// not its graph. On the link_failure shape, 60,000 links of which 200 carry
// a flow, a broker holds at most 0.5 MB of live heap after a GC, and a
// link no flow crosses adds nothing to it.
func TestNewFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	held := func(p *model.Problem) int64 {
		// Two collections: the first leaves sync.Pool victims behind.
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		br, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(br)
		return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	}
	few, many := idleLinkProblem(400), idleLinkProblem(60_000)
	heldFew, heldMany := held(few), held(many)
	t.Logf("broker.New holds %.3f MB over 400 links, %.3f MB over 60,000", float64(heldFew)/1e6, float64(heldMany)/1e6)
	if heldMany > 500_000 {
		t.Errorf("broker.New over 60,000 links holds %d live heap bytes, want at most 500,000", heldMany)
	}
	if per := float64(heldMany-heldFew) / (60_000 - 400); per > 1 {
		t.Errorf("each idle link adds %.1f live heap bytes to a broker, want none", per)
	}
}
