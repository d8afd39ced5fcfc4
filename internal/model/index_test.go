package model

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/utility"
)

// randomIndexProblem builds a random valid problem with links, exercising
// every dense view the index precomputes.
func randomIndexProblem(rng *rand.Rand) *Problem {
	nFlows := 2 + rng.Intn(5)
	nNodes := 2 + rng.Intn(5)
	p := &Problem{
		Name:  "index-test",
		Flows: make([]Flow, nFlows),
		Nodes: make([]Node, nNodes),
	}
	for b := range p.Nodes {
		p.Nodes[b] = Node{ID: NodeID(b), Capacity: 1e5}
	}
	for i := range p.Flows {
		p.Flows[i] = Flow{ID: FlowID(i), RateMin: 1, RateMax: 100}
		// Reach a random nonempty node subset.
		for b := range p.Nodes {
			if rng.Intn(2) == 0 {
				p.Nodes[b].FlowCost = p.Nodes[b].FlowCost.With(FlowID(i), 1+rng.Float64())
			}
		}
		src := NodeID(rng.Intn(nNodes))
		p.Nodes[src].FlowCost = p.Nodes[src].FlowCost.With(FlowID(i), 1+rng.Float64())
		p.Flows[i].Source = src
		// Classes at the nodes the flow reaches.
		for b := range p.Nodes {
			if _, ok := p.Nodes[b].FlowCost.Get(FlowID(i)); !ok {
				continue
			}
			for k := 0; k < 1+rng.Intn(2); k++ {
				p.Classes = append(p.Classes, Class{
					ID:              ClassID(len(p.Classes)),
					Flow:            FlowID(i),
					Node:            NodeID(b),
					MaxConsumers:    1 + rng.Intn(50),
					CostPerConsumer: 1 + rng.Float64(),
					Utility:         utility.NewLog(1 + rng.Float64()*10),
				})
			}
		}
	}
	for l := 0; l < nFlows; l++ {
		from := NodeID(rng.Intn(nNodes))
		to := (from + 1) % NodeID(nNodes)
		costs := map[FlowID]float64{}
		for i := range p.Flows {
			if rng.Intn(2) == 0 {
				costs[FlowID(i)] = 1 + rng.Float64()
			}
		}
		if len(costs) == 0 {
			costs[FlowID(rng.Intn(nFlows))] = 1
		}
		p.Links = append(p.Links, Link{
			ID: LinkID(l), From: from, To: to, Capacity: 1e4, FlowCost: CostsOf(costs),
		})
	}
	return p
}

// TestIndexDenseViewsMatchMaps checks every cost view against the records
// it is built from — each node's and link's flow and cost lists are its
// record's own, flows strictly ascending, and each flow's costs are the
// records' — and the per-(flow, node) class lists against a direct filter
// of ClassesByNode. The random problems leave some nodes without a flow.
func TestIndexDenseViewsMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idle := 0
	for trial := 0; trial < 50; trial++ {
		p := randomIndexProblem(rng)
		if err := Validate(p); err != nil {
			t.Fatalf("trial %d: generated invalid problem: %v", trial, err)
		}
		ix := NewIndex(p)

		for b := range p.Nodes {
			bid := NodeID(b)
			var attached []ClassID
			for _, c := range p.Classes {
				if c.Node == bid {
					attached = append(attached, c.ID)
				}
			}
			if got := ix.ClassesByNode(bid); !slices.Equal(got, attached) {
				t.Fatalf("node %d: classes %v, want %v", b, got, attached)
			}
			flows, costs := ix.FlowsByNode(bid), ix.FlowCostsByNode(bid)
			if len(flows) == 0 {
				idle++
			}
			if !isRecord(flows, costs, p.Nodes[b].FlowCost) {
				t.Fatalf("node %d: flows %v costs %v, record %v", b, flows, costs, p.Nodes[b].FlowCost)
			}
		}
		for l := range p.Links {
			lid := LinkID(l)
			flows, costs := ix.FlowsByLink(lid), ix.FlowCostsByLink(lid)
			if !isRecord(flows, costs, p.Links[l].FlowCost) {
				t.Fatalf("link %d: flows %v costs %v, record %v", l, flows, costs, p.Links[l].FlowCost)
			}
		}
		for i := range p.Flows {
			fid := FlowID(i)
			nodes, ncosts := ix.NodesByFlow(fid), ix.NodeCostsByFlow(fid)
			classes := ix.ClassesByFlowNode(fid)
			if len(nodes) != len(ncosts) || len(nodes) != len(classes) {
				t.Fatalf("flow %d: misaligned node views %d/%d/%d",
					i, len(nodes), len(ncosts), len(classes))
			}
			for k, b := range nodes {
				if want, _ := p.Nodes[b].FlowCost.Get(fid); ncosts[k] != want {
					t.Errorf("flow %d node %d: cost %g, want %g", i, b, ncosts[k], want)
				}
				var want []ClassID
				for _, cid := range ix.ClassesByNode(b) {
					if p.Classes[cid].Flow == fid {
						want = append(want, cid)
					}
				}
				got := classes[k]
				if len(got) != len(want) {
					t.Fatalf("flow %d node %d: classes %v, want %v", i, b, got, want)
				}
				for x := range want {
					if got[x] != want[x] {
						t.Errorf("flow %d node %d: classes %v, want %v", i, b, got, want)
					}
				}
			}
			links, lcosts := ix.LinksByFlow(fid), ix.LinkCostsByFlow(fid)
			if len(links) != len(lcosts) {
				t.Fatalf("flow %d: %d links vs %d costs", i, len(links), len(lcosts))
			}
			for k, l := range links {
				if want, _ := p.Links[l].FlowCost.Get(fid); lcosts[k] != want {
					t.Errorf("flow %d link %d: cost %g, want %g", i, l, lcosts[k], want)
				}
			}
		}
	}
	if idle == 0 {
		t.Fatal("no trial left a node without a flow")
	}
}

// isRecord reports whether flows and costs are the record's own lists,
// flows strictly ascending: the index hands out the problem's records, it
// does not copy them.
func isRecord(flows []FlowID, costs []float64, c *Costs) bool {
	if len(flows) != c.Len() || len(costs) != c.Len() {
		return false
	}
	if c.Len() > 0 && (&flows[0] != &c.Flows()[0] || &costs[0] != &c.Values()[0]) {
		return false
	}
	for k := 1; k < len(flows); k++ {
		if flows[k-1] >= flows[k] {
			return false
		}
	}
	return true
}

// TestRefreshRoutingRefusesWithoutMutating: a delta that RefreshRouting
// refuses — here a flow that leaves the second of two dirty nodes without
// being named, found only after the first node's view has been rebuilt, and
// a dirty node whose capacity fails Validate's rule — must leave the index
// exactly as it was; an accepted one must leave it equal to a fresh NewIndex.
func TestRefreshRoutingRefusesWithoutMutating(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		p := randomIndexProblem(rng)
		// Flow 0 leaves a node it crosses other than its source; its classes
		// there give up their demand, as a pruned subscriber's do.
		ix := NewIndex(p)
		leave := NodeID(-1)
		for _, b := range ix.NodesByFlow(0) {
			if b != p.Flows[0].Source {
				leave = b
			}
		}
		if leave < 0 {
			continue
		}
		other := (leave + 1) % NodeID(len(p.Nodes))
		q := p.Clone()
		q.Nodes[leave].FlowCost = q.Nodes[leave].FlowCost.Without(0)
		for _, j := range ix.ClassesByFlow(0) {
			if q.Classes[j].Node == leave {
				q.Classes[j].MaxConsumers = 0
			}
		}
		dirty := []NodeID{other, leave}

		if err := ix.RefreshRouting(q, RoutingDelta{Nodes: dirty}); err == nil {
			t.Fatalf("trial %d: accepted flow 0 leaving node %d unnamed", trial, leave)
		}
		if !reflect.DeepEqual(ix, NewIndex(p)) {
			t.Fatalf("trial %d: the refused delta changed the index", trial)
		}
		bad := q.Clone()
		bad.Nodes[other].Capacity = -1
		err := ix.RefreshRouting(bad, RoutingDelta{Flows: []FlowID{0}, Nodes: dirty})
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("trial %d: dirty node with capacity -1: %v, want ErrInvalid", trial, err)
		}
		if !reflect.DeepEqual(ix, NewIndex(p)) {
			t.Fatalf("trial %d: the invalid delta changed the index", trial)
		}
		if err := ix.RefreshRouting(q, RoutingDelta{Flows: []FlowID{0}, Nodes: dirty}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(ix, NewIndex(q)) {
			t.Fatalf("trial %d: the refreshed index differs from a fresh NewIndex", trial)
		}
		return
	}
	t.Fatal("no trial had a node flow 0 could leave")
}
