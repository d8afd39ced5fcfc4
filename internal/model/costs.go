package model

import (
	"encoding/json"
	"fmt"
	"slices"
)

// Costs is one node's or link's cost record: the flows that cross the
// element, ascending, and each one's coefficient (F_{b,i} for a node,
// L_{l,i} for a link) at the same position. A record is immutable once
// built: With and Without return a new one, so a problem, its clones and
// the Index built over them share the same records. A nil *Costs is the
// empty record — no flow crosses the element — and every method accepts it.
//
// Its JSON form is that of a map from flow to cost: an object keyed by the
// decimal flow IDs, in encoding/json's string order.
type Costs struct {
	flows []FlowID
	costs []float64
}

// NewCosts returns the record of flows[k] at costs[k], adopting both
// slices: the caller must not modify them afterwards. It returns nil when
// flows is empty and panics unless the lengths match and flows ascends
// strictly.
func NewCosts(flows []FlowID, costs []float64) *Costs {
	if len(flows) != len(costs) {
		panic(fmt.Sprintf("model: NewCosts with %d flows and %d costs", len(flows), len(costs)))
	}
	for k := 1; k < len(flows); k++ {
		if flows[k-1] >= flows[k] {
			panic(fmt.Sprintf("model: NewCosts flows not strictly ascending at %d: %d, %d", k, flows[k-1], flows[k]))
		}
	}
	if len(flows) == 0 {
		return nil
	}
	return &Costs{flows, costs}
}

// CostsOf returns the record of a map from flow to cost; nil when m is
// empty.
func CostsOf(m map[FlowID]float64) *Costs {
	if len(m) == 0 {
		return nil
	}
	flows := make([]FlowID, 0, len(m))
	for i := range m {
		flows = append(flows, i)
	}
	slices.Sort(flows)
	costs := make([]float64, len(flows))
	for k, i := range flows {
		costs[k] = m[i]
	}
	return &Costs{flows, costs}
}

// Len returns how many flows cross the element.
func (c *Costs) Len() int {
	if c == nil {
		return 0
	}
	return len(c.flows)
}

// Get returns flow i's coefficient, and whether i crosses the element.
func (c *Costs) Get(i FlowID) (float64, bool) {
	if c == nil {
		return 0, false
	}
	if k, ok := slices.BinarySearch(c.flows, i); ok {
		return c.costs[k], true
	}
	return 0, false
}

// Flows returns the crossing flows, ascending. The slice is the record's
// own and must not be modified.
func (c *Costs) Flows() []FlowID {
	if c == nil {
		return nil
	}
	return c.flows
}

// Values returns the coefficients aligned with Flows. The slice is the
// record's own and must not be modified.
func (c *Costs) Values() []float64 {
	if c == nil {
		return nil
	}
	return c.costs
}

// With returns a record in which flow i costs v and every other flow what
// it costs in c.
func (c *Costs) With(i FlowID, v float64) *Costs {
	flows, costs := c.Flows(), c.Values()
	k, found := slices.BinarySearch(flows, i)
	if found {
		costs = slices.Clone(costs)
		costs[k] = v
		return &Costs{flows, costs}
	}
	n := len(flows) + 1
	return &Costs{
		append(append(append(make([]FlowID, 0, n), flows[:k]...), i), flows[k:]...),
		append(append(append(make([]float64, 0, n), costs[:k]...), v), costs[k:]...),
	}
}

// Without returns a record without flow i: c itself when i does not cross
// the element, nil when i was its only flow.
func (c *Costs) Without(i FlowID) *Costs {
	k, found := slices.BinarySearch(c.Flows(), i)
	switch {
	case !found:
		return c
	case c.Len() == 1:
		return nil
	}
	n := c.Len() - 1
	return &Costs{
		append(append(make([]FlowID, 0, n), c.flows[:k]...), c.flows[k+1:]...),
		append(append(make([]float64, 0, n), c.costs[:k]...), c.costs[k+1:]...),
	}
}

// MarshalJSON writes the record as the map[FlowID]float64 it stands for,
// so encoding/json orders the keys and formats the values.
func (c *Costs) MarshalJSON() ([]byte, error) {
	m := make(map[FlowID]float64, c.Len())
	for k, i := range c.Flows() {
		m[i] = c.costs[k]
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads a record as encoding/json reads a map[FlowID]float64:
// the last of a duplicated key wins. It overwrites the record it is called
// on, so decode only into a record nothing shares; Problem's decoding
// starts from fresh nodes and links.
func (c *Costs) UnmarshalJSON(data []byte) error {
	var m map[FlowID]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if r := CostsOf(m); r != nil {
		*c = *r
	} else {
		*c = Costs{}
	}
	return nil
}
