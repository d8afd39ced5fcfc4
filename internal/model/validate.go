package model

import (
	"errors"
	"fmt"
)

// ErrInvalid wraps all structural problems reported by Validate, and every
// numeric option Option refuses.
var ErrInvalid = errors.New("model: invalid problem")

// Validate checks structural well-formedness of a problem:
//
//   - flows, classes, nodes and links are numbered 0..len-1 by their IDs;
//   - every referenced flow/node exists;
//   - rate bounds satisfy 0 < RateMin <= RateMax;
//   - capacities and cost coefficients are positive where present;
//   - every class has MaxConsumers >= 0, CostPerConsumer > 0 and a
//     non-nil utility;
//   - every class's flow reaches the class's node (otherwise the node
//     constraint could not account for its consumers);
//   - every flow's source node exists and link endpoints are distinct
//     existing nodes.
//
// Validate returns the first violation found, wrapped in ErrInvalid. The
// rules are per element (validateFlow, validateClass, validateNode,
// validateLink), so Index.RefreshRouting can re-establish them on the
// elements a routing delta names without sweeping the problem.
func Validate(p *Problem) error {
	if len(p.Flows) == 0 {
		return fmt.Errorf("%w: no flows", ErrInvalid)
	}
	if len(p.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrInvalid)
	}
	for _, part := range []struct {
		n     int
		check func(*Problem, int) error
	}{
		{len(p.Flows), validateFlow},
		{len(p.Classes), validateClass},
		{len(p.Nodes), validateNode},
		{len(p.Links), validateLink},
	} {
		for k := 0; k < part.n; k++ {
			if err := part.check(p, k); err != nil {
				return err
			}
		}
	}
	if len(p.Classes) == 0 {
		return fmt.Errorf("%w: no consumer classes", ErrInvalid)
	}
	return nil
}

func validateFlow(p *Problem, i int) error {
	f := &p.Flows[i]
	if int(f.ID) != i {
		return fmt.Errorf("%w: flow at index %d has ID %d", ErrInvalid, i, f.ID)
	}
	if f.Source < 0 || int(f.Source) >= len(p.Nodes) {
		return fmt.Errorf("%w: flow %d source node %d out of range", ErrInvalid, i, f.Source)
	}
	if !(f.RateMin > 0) || f.RateMin > f.RateMax {
		return fmt.Errorf("%w: flow %d rate bounds [%g, %g]", ErrInvalid, i, f.RateMin, f.RateMax)
	}
	return nil
}

func validateClass(p *Problem, j int) error {
	c := &p.Classes[j]
	if int(c.ID) != j {
		return fmt.Errorf("%w: class at index %d has ID %d", ErrInvalid, j, c.ID)
	}
	if c.Flow < 0 || int(c.Flow) >= len(p.Flows) {
		return fmt.Errorf("%w: class %d flow %d out of range", ErrInvalid, j, c.Flow)
	}
	if c.Node < 0 || int(c.Node) >= len(p.Nodes) {
		return fmt.Errorf("%w: class %d node %d out of range", ErrInvalid, j, c.Node)
	}
	if c.MaxConsumers < 0 {
		return fmt.Errorf("%w: class %d MaxConsumers %d", ErrInvalid, j, c.MaxConsumers)
	}
	if !(c.CostPerConsumer > 0) {
		return fmt.Errorf("%w: class %d CostPerConsumer %g", ErrInvalid, j, c.CostPerConsumer)
	}
	if c.Utility == nil {
		return fmt.Errorf("%w: class %d has no utility function", ErrInvalid, j)
	}
	if _, ok := p.Nodes[c.Node].FlowCost[c.Flow]; !ok && c.MaxConsumers > 0 {
		// A demand-less class may sit off its flow's tree: two-stage
		// pruning zeroes MaxConsumers instead of dropping classes so the
		// member set stays Refresh-compatible, and a zero-demand class
		// admits nothing wherever it is.
		return fmt.Errorf("%w: class %d attached at node %d but flow %d does not reach it",
			ErrInvalid, j, c.Node, c.Flow)
	}
	return nil
}

func validateNode(p *Problem, b int) error {
	n := &p.Nodes[b]
	if int(n.ID) != b {
		return fmt.Errorf("%w: node at index %d has ID %d", ErrInvalid, b, n.ID)
	}
	if !(n.Capacity > 0) {
		return fmt.Errorf("%w: node %d capacity %g", ErrInvalid, b, n.Capacity)
	}
	return validateCosts(p, n.FlowCost, "node", b)
}

func validateLink(p *Problem, li int) error {
	l := &p.Links[li]
	if int(l.ID) != li {
		return fmt.Errorf("%w: link at index %d has ID %d", ErrInvalid, li, l.ID)
	}
	if l.From < 0 || int(l.From) >= len(p.Nodes) || l.To < 0 || int(l.To) >= len(p.Nodes) {
		return fmt.Errorf("%w: link %d endpoints %d->%d out of range", ErrInvalid, li, l.From, l.To)
	}
	if l.From == l.To {
		return fmt.Errorf("%w: link %d is a self-loop at node %d", ErrInvalid, li, l.From)
	}
	if !(l.Capacity > 0) {
		return fmt.Errorf("%w: link %d capacity %g", ErrInvalid, li, l.Capacity)
	}
	return validateCosts(p, l.FlowCost, "link", li)
}

// validateCosts checks one resource's cost map: known flows, positive costs.
func validateCosts(p *Problem, costs map[FlowID]float64, kind string, id int) error {
	for i, cost := range costs {
		if i < 0 || int(i) >= len(p.Flows) {
			return fmt.Errorf("%w: %s %d has cost for unknown flow %d", ErrInvalid, kind, id, i)
		}
		if !(cost > 0) {
			return fmt.Errorf("%w: %s %d flow %d cost %g", ErrInvalid, kind, id, i, cost)
		}
	}
	return nil
}
