package model

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// FuzzRefreshRouting drives RefreshRouting through a seeded sequence of
// routing changes on a random problem: each step moves one or two flows,
// which enter, leave and change their cost at random nodes and links
// (With and Without on the records, the flow's classes losing their demand
// where it leaves). Before each step's complete delta it offers two
// incomplete ones, which must be refused and leave the index as it was:
// the delta without a changed element that a moved flow crossed before,
// and the delta without a moved flow. After the complete one the index
// must be reflect.DeepEqual to a fresh NewIndex. (An element left out that
// only gained moved flows is not offered: RefreshRouting cannot see it
// without a sweep, which it documents.)
func FuzzRefreshRouting(f *testing.F) {
	f.Add(int64(1), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := randomIndexProblem(rng)
		ix := NewIndex(p)
		for step := 0; step < 1+int(steps%32); step++ {
			q, d := moveFlows(rng, p)
			for _, bad := range incompleteDeltas(rng, p, q, d) {
				if err := ix.RefreshRouting(q, bad); err == nil {
					t.Fatalf("step %d: accepted %+v, which leaves out part of %+v", step, bad, d)
				}
				if !reflect.DeepEqual(ix, NewIndex(p)) {
					t.Fatalf("step %d: the refused delta %+v changed the index", step, bad)
				}
			}
			if err := ix.RefreshRouting(q, d); err != nil {
				t.Fatalf("step %d: %+v: %v", step, d, err)
			}
			if !reflect.DeepEqual(ix, NewIndex(q)) {
				t.Fatalf("step %d: after %+v the index differs from a fresh NewIndex", step, d)
			}
			p = q
		}
	})
}

// moveFlows returns a copy of p in which one or two flows moved, and the
// delta naming them and every node and link whose record changed (plus,
// now and then, one that did not).
func moveFlows(rng *rand.Rand, p *Problem) (*Problem, RoutingDelta) {
	q := p.Clone()
	var d RoutingDelta
	for k := 1 + rng.Intn(2); k > 0; k-- {
		if i := FlowID(rng.Intn(len(q.Flows))); !slices.Contains(d.Flows, i) {
			d.Flows = append(d.Flows, i)
		}
	}
	edit := func(c *Costs, i FlowID) *Costs {
		if _, on := c.Get(i); on && rng.Intn(3) > 0 {
			return c.Without(i)
		}
		return c.With(i, 1+rng.Float64())
	}
	for _, i := range d.Flows {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			if rng.Intn(2) == 0 {
				l := rng.Intn(len(q.Links))
				q.Links[l].FlowCost = edit(q.Links[l].FlowCost, i)
				continue
			}
			b := NodeID(rng.Intn(len(q.Nodes)))
			q.Nodes[b].FlowCost = edit(q.Nodes[b].FlowCost, i)
			_, on := q.Nodes[b].FlowCost.Get(i)
			for j := range q.Classes {
				if c := &q.Classes[j]; c.Flow == i && c.Node == b {
					switch {
					case !on:
						c.MaxConsumers = 0
					case c.MaxConsumers == 0 && rng.Intn(2) == 0:
						c.MaxConsumers = 1 + rng.Intn(50)
					}
				}
			}
		}
	}
	for b := range q.Nodes {
		if !sameCosts(p.Nodes[b].FlowCost, q.Nodes[b].FlowCost) || rng.Intn(20) == 0 {
			d.Nodes = append(d.Nodes, NodeID(b))
		}
	}
	for l := range q.Links {
		if !sameCosts(p.Links[l].FlowCost, q.Links[l].FlowCost) || rng.Intn(20) == 0 {
			d.Links = append(d.Links, LinkID(l))
		}
	}
	return q, d
}

// incompleteDeltas returns d without one changed element some flow of d
// crossed in p, and d without one flow whose move changed a record, each
// when there is one to leave out.
func incompleteDeltas(rng *rand.Rand, p, q *Problem, d RoutingDelta) []RoutingDelta {
	var out []RoutingDelta
	crossedByMoved := func(c *Costs) bool {
		return slices.ContainsFunc(c.Flows(), func(i FlowID) bool { return slices.Contains(d.Flows, i) })
	}
	var nodes []int
	for k, b := range d.Nodes {
		if was := p.Nodes[b].FlowCost; !sameCosts(was, q.Nodes[b].FlowCost) && crossedByMoved(was) {
			nodes = append(nodes, k)
		}
	}
	var links []int
	for k, l := range d.Links {
		if was := p.Links[l].FlowCost; !sameCosts(was, q.Links[l].FlowCost) && crossedByMoved(was) {
			links = append(links, k)
		}
	}
	bad := d
	switch n := len(nodes) + len(links); {
	case n == 0:
	case rng.Intn(n) < len(nodes):
		k := nodes[rng.Intn(len(nodes))]
		bad.Nodes = slices.Delete(slices.Clone(d.Nodes), k, k+1)
		out = append(out, bad)
	default:
		k := links[rng.Intn(len(links))]
		bad.Links = slices.Delete(slices.Clone(d.Links), k, k+1)
		out = append(out, bad)
	}

	// A flow moved if some record holds it differently in q than in p.
	for k, i := range d.Flows {
		moved := func(was, is *Costs) bool {
			c0, on0 := was.Get(i)
			c1, on1 := is.Get(i)
			return on0 != on1 || c0 != c1
		}
		found := false
		for b := range q.Nodes {
			found = found || moved(p.Nodes[b].FlowCost, q.Nodes[b].FlowCost)
		}
		for l := range q.Links {
			found = found || moved(p.Links[l].FlowCost, q.Links[l].FlowCost)
		}
		if found {
			bad := d
			bad.Flows = slices.Delete(slices.Clone(d.Flows), k, k+1)
			return append(out, bad)
		}
	}
	return out
}
