package model

import (
	"encoding/json"
	"fmt"

	"repro/internal/utility"
)

// JSON (de)serialization of problems. Class utility functions are
// interfaces, so the wire form replaces each with a utility.Spec. Only the
// concrete types from the utility package can round-trip; foreign Function
// implementations make Marshal fail with an explanatory error.

// classJSON is the wire form of Class.
type classJSON struct {
	ID              ClassID      `json:"id"`
	Name            string       `json:"name,omitempty"`
	Flow            FlowID       `json:"flow"`
	Node            NodeID       `json:"node"`
	MaxConsumers    int          `json:"maxConsumers"`
	CostPerConsumer float64      `json:"costPerConsumer"`
	Utility         utility.Spec `json:"utility"`
}

// problemJSON is the wire form of Problem.
type problemJSON struct {
	Name    string      `json:"name,omitempty"`
	Flows   []Flow      `json:"flows"`
	Classes []classJSON `json:"classes"`
	Nodes   []Node      `json:"nodes"`
	Links   []Link      `json:"links,omitempty"`
}

// MarshalJSON implements json.Marshaler for Problem.
func (p *Problem) MarshalJSON() ([]byte, error) {
	out := problemJSON{
		Name:    p.Name,
		Flows:   p.Flows,
		Classes: make([]classJSON, len(p.Classes)),
		Nodes:   p.Nodes,
		Links:   p.Links,
	}
	for i, c := range p.Classes {
		spec, ok := utility.SpecOf(c.Utility)
		if !ok {
			return nil, fmt.Errorf("model: class %d utility %T is not serializable", c.ID, c.Utility)
		}
		out.Classes[i] = classJSON{
			ID:              c.ID,
			Name:            c.Name,
			Flow:            c.Flow,
			Node:            c.Node,
			MaxConsumers:    c.MaxConsumers,
			CostPerConsumer: c.CostPerConsumer,
			Utility:         spec,
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Problem.
func (p *Problem) UnmarshalJSON(data []byte) error {
	var in problemJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	classes := make([]Class, len(in.Classes))
	for i, c := range in.Classes {
		fn, err := c.Utility.Build()
		if err != nil {
			return fmt.Errorf("model: class %d: %w", c.ID, err)
		}
		classes[i] = Class{
			ID:              c.ID,
			Name:            c.Name,
			Flow:            c.Flow,
			Node:            c.Node,
			MaxConsumers:    c.MaxConsumers,
			CostPerConsumer: c.CostPerConsumer,
			Utility:         fn,
		}
	}
	// An empty cost object decodes to the nil record, which is what an
	// empty map was: omitted when the problem is encoded again.
	for b := range in.Nodes {
		if in.Nodes[b].FlowCost.Len() == 0 {
			in.Nodes[b].FlowCost = nil
		}
	}
	for l := range in.Links {
		if in.Links[l].FlowCost.Len() == 0 {
			in.Links[l].FlowCost = nil
		}
	}
	*p = Problem{
		Name:    in.Name,
		Flows:   in.Flows,
		Classes: classes,
		Nodes:   in.Nodes,
		Links:   in.Links,
	}
	return nil
}
