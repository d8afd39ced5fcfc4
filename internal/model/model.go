// Package model defines the resource-allocation problem an event-driven
// distributed infrastructure must solve, following Section 2 of the LRGP
// paper (Lumezanu, Bhola, Astley, ICDCS 2006).
//
// A Problem consists of flows, consumer classes, nodes and links, together
// with the three cost coefficients of the paper's resource model:
//
//   - Link cost L_{l,i}: resource used on link l per unit rate of flow i
//     (Link.FlowCost).
//   - Flow-node cost F_{b,i}: resource used at node b per unit rate of flow
//     i, independent of consumers (Node.FlowCost).
//
// L and F are sparse — a coefficient exists only where a flow crosses the
// element — and each element holds its share as one immutable Costs record.
//   - Consumer-node cost G_{b,j}: resource used at the attachment node of
//     class j, per admitted consumer, per unit rate (Class.CostPerConsumer).
//
// An Allocation assigns a rate to every flow and an admitted-consumer count
// to every class, and in the multirate formulation of Section 5 a delivery
// rate to every class; the model package evaluates total utility,
// per-resource usage and feasibility of allocations, and (de)serializes
// problems.
package model

import (
	"slices"

	"repro/internal/utility"
)

// Typed identifiers. IDs double as indices: a valid Problem numbers its
// flows, classes, nodes and links 0..len-1 (enforced by Validate).
type (
	// FlowID identifies a message flow.
	FlowID int
	// ClassID identifies a consumer class.
	ClassID int
	// NodeID identifies an overlay node.
	NodeID int
	// LinkID identifies a unidirectional overlay link.
	LinkID int
)

// Flow is a stream of producer messages injected at a single source node.
// The optimizer picks its source rate within [RateMin, RateMax].
type Flow struct {
	// ID is the flow's index in Problem.Flows.
	ID FlowID `json:"id"`
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
	// Source is the node where all of the flow's producers attach and
	// where the rate-allocation algorithm for this flow runs.
	Source NodeID `json:"source"`
	// RateMin and RateMax bound the source rate (constraint 3 in the
	// paper). RateMin must be > 0 so power-law utilities stay
	// differentiable.
	RateMin float64 `json:"rateMin"`
	RateMax float64 `json:"rateMax"`
}

// Class is a set of identical consumers of one flow attached at one node.
// (A class spanning several nodes is modeled as several classes with the
// same utility, as the paper notes.)
type Class struct {
	// ID is the class's index in Problem.Classes.
	ID ClassID `json:"id"`
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
	// Flow is the flow this class consumes (flowMap in the paper).
	Flow FlowID `json:"flow"`
	// Node is the attachment node (attachMap in the paper).
	Node NodeID `json:"node"`
	// MaxConsumers is n_j^max: how many consumers want service.
	MaxConsumers int `json:"maxConsumers"`
	// CostPerConsumer is G_{b,j}: node resource consumed per admitted
	// consumer per unit flow rate.
	CostPerConsumer float64 `json:"costPerConsumer"`
	// Utility is U_j, the per-consumer utility of the flow rate.
	Utility utility.Function `json:"-"`
}

// Node is an overlay node with a finite resource capacity (CPU).
type Node struct {
	// ID is the node's index in Problem.Nodes.
	ID NodeID `json:"id"`
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
	// Capacity is c_b.
	Capacity float64 `json:"capacity"`
	// FlowCost holds F_{b,i}, the per-unit-rate processing cost that is
	// independent of consumers, for each flow that reaches this node.
	// Flows absent from it do not reach the node; nil when none does.
	FlowCost *Costs `json:"flowCost,omitempty"`
}

// Link is a unidirectional overlay link with a finite capacity (network
// bandwidth on the path between two nodes).
type Link struct {
	// ID is the link's index in Problem.Links.
	ID LinkID `json:"id"`
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
	// From and To are the endpoint nodes. The To endpoint runs the link's
	// price computation in the distributed runtime.
	From NodeID `json:"from"`
	To   NodeID `json:"to"`
	// Capacity is c_l.
	Capacity float64 `json:"capacity"`
	// FlowCost holds L_{l,i} for each flow that traverses this link.
	// Flows absent from it do not traverse the link; nil when none does.
	FlowCost *Costs `json:"flowCost,omitempty"`
}

// Problem is a complete instance of the optimization problem.
type Problem struct {
	// Name labels the workload (e.g. "base-6f-3n").
	Name string `json:"name,omitempty"`
	// Flows, Classes, Nodes and Links are indexed by their IDs.
	Flows   []Flow  `json:"flows"`
	Classes []Class `json:"classes"`
	Nodes   []Node  `json:"nodes"`
	Links   []Link  `json:"links,omitempty"`
}

// Allocation is a candidate solution: a rate per flow and an admitted
// consumer count per class, indexed by FlowID and ClassID respectively.
// Delivery, indexed by ClassID, is the multirate formulation's (Section 5)
// rate d_j at which class j receives its flow, r^min <= d_j <= r_i; nil
// means d_j = r_i for every class, which is the single-rate problem.
type Allocation struct {
	Rates     []float64 `json:"rates"`
	Consumers []int     `json:"consumers"`
	Delivery  []float64 `json:"delivery,omitempty"`
}

// delivered is the rate at which class c receives its flow: d_j when a
// carries delivery rates, r_i otherwise.
func (a Allocation) delivered(c *Class) float64 {
	if a.Delivery != nil {
		return a.Delivery[c.ID]
	}
	return a.Rates[c.Flow]
}

// NewAllocation returns an allocation with every rate at its flow's RateMin
// and every consumer count at zero — the state LRGP starts from.
func NewAllocation(p *Problem) Allocation {
	a := Allocation{
		Rates:     make([]float64, len(p.Flows)),
		Consumers: make([]int, len(p.Classes)),
	}
	for i, f := range p.Flows {
		a.Rates[i] = f.RateMin
	}
	return a
}

// Clone returns a deep copy of the allocation.
func (a Allocation) Clone() Allocation {
	out := Allocation{
		Rates:     make([]float64, len(a.Rates)),
		Consumers: make([]int, len(a.Consumers)),
	}
	copy(out.Rates, a.Rates)
	copy(out.Consumers, a.Consumers)
	out.Delivery = slices.Clone(a.Delivery)
	return out
}

// Clone returns a copy of the problem that can be changed without
// changing p. Utility functions and cost records are shared (they are
// immutable values).
func (p *Problem) Clone() *Problem {
	out := &Problem{
		Name:    p.Name,
		Flows:   make([]Flow, len(p.Flows)),
		Classes: make([]Class, len(p.Classes)),
		Nodes:   make([]Node, len(p.Nodes)),
		Links:   make([]Link, len(p.Links)),
	}
	copy(out.Flows, p.Flows)
	copy(out.Classes, p.Classes)
	copy(out.Nodes, p.Nodes)
	copy(out.Links, p.Links)
	return out
}
