package model

import (
	"errors"
	"fmt"
)

// Evaluation of allocations: the objective function (Equation 1) and the
// resource constraints (Equations 4 and 5). An allocation with delivery
// rates is evaluated in the multirate formulation (Section 5): each class
// term reads d_j where the single-rate problem reads r_i, and links and
// flow-node costs still carry r_i.

// ErrInfeasible wraps all feasibility violations reported by CheckFeasible.
var ErrInfeasible = errors.New("model: infeasible allocation")

// TotalUtility evaluates the objective of Equation 1,
// sum_i sum_{j in C_i} n_j * U_j(r_i) (U_j(d_j) with delivery rates), for
// the given allocation.
func TotalUtility(p *Problem, a Allocation) float64 {
	total := 0.0
	for j := range p.Classes {
		c := &p.Classes[j]
		n := a.Consumers[c.ID]
		if n == 0 {
			continue
		}
		total += float64(n) * c.Utility.Value(a.delivered(c))
	}
	return total
}

// NodeUsage evaluates the left-hand side of Equation 5 for node b:
// sum over flows reaching b of (F_{b,i} r_i + sum over classes at b on flow
// i of G_{b,j} n_j r_i), with d_j in place of r_i in the class terms when
// the allocation carries delivery rates.
func NodeUsage(p *Problem, ix *Index, a Allocation, b NodeID) float64 {
	used := 0.0
	costs := ix.FlowCostsByNode(b)
	for k, i := range ix.FlowsByNode(b) {
		used += costs[k] * a.Rates[i]
	}
	for _, cid := range ix.ClassesByNode(b) {
		c := &p.Classes[cid]
		used += c.CostPerConsumer * float64(a.Consumers[cid]) * a.delivered(c)
	}
	return used
}

// NodeFlowUsage evaluates only the consumer-independent portion of node b's
// usage, sum_i F_{b,i} r_i. The greedy consumer-allocation step uses the
// remainder c_b - NodeFlowUsage as its admission budget.
func NodeFlowUsage(p *Problem, ix *Index, a Allocation, b NodeID) float64 {
	used := 0.0
	costs := ix.FlowCostsByNode(b)
	for k, i := range ix.FlowsByNode(b) {
		used += costs[k] * a.Rates[i]
	}
	return used
}

// LinkUsage evaluates the left-hand side of Equation 4 for link l:
// sum over flows traversing l of L_{l,i} r_i.
func LinkUsage(p *Problem, ix *Index, a Allocation, l LinkID) float64 {
	used := 0.0
	costs := ix.FlowCostsByLink(l)
	for k, i := range ix.FlowsByLink(l) {
		used += costs[k] * a.Rates[i]
	}
	return used
}

// CheckFeasible reports nil when the allocation satisfies every constraint
// of Section 2: rate bounds, population bounds, link capacities and node
// capacities, and with delivery rates also r^min <= d_j <= r_i. tol is an
// absolute slack added to each comparison to absorb floating-point noise;
// pass 0 for exact checking.
func CheckFeasible(p *Problem, ix *Index, a Allocation, tol float64) error {
	if len(a.Rates) != len(p.Flows) || len(a.Consumers) != len(p.Classes) {
		return fmt.Errorf("%w: allocation shape %d/%d, want %d/%d",
			ErrInfeasible, len(a.Rates), len(a.Consumers), len(p.Flows), len(p.Classes))
	}
	if a.Delivery != nil && len(a.Delivery) != len(p.Classes) {
		return fmt.Errorf("%w: %d delivery rates for %d classes", ErrInfeasible, len(a.Delivery), len(p.Classes))
	}
	for _, f := range p.Flows {
		r := a.Rates[f.ID]
		if r < f.RateMin-tol || r > f.RateMax+tol {
			return fmt.Errorf("%w: flow %d rate %g outside [%g, %g]",
				ErrInfeasible, f.ID, r, f.RateMin, f.RateMax)
		}
	}
	for _, c := range p.Classes {
		if a.Delivery != nil {
			if d, f := a.Delivery[c.ID], p.Flows[c.Flow]; d < f.RateMin-tol || d > a.Rates[c.Flow]+tol {
				return fmt.Errorf("%w: class %d delivery %g outside [%g, %g]",
					ErrInfeasible, c.ID, d, f.RateMin, a.Rates[c.Flow])
			}
		}
		n := a.Consumers[c.ID]
		if n < 0 || n > c.MaxConsumers {
			return fmt.Errorf("%w: class %d population %d outside [0, %d]",
				ErrInfeasible, c.ID, n, c.MaxConsumers)
		}
	}
	for _, l := range p.Links {
		if used := LinkUsage(p, ix, a, l.ID); used > l.Capacity+tol {
			return fmt.Errorf("%w: link %d usage %g exceeds capacity %g",
				ErrInfeasible, l.ID, used, l.Capacity)
		}
	}
	for _, n := range p.Nodes {
		if used := NodeUsage(p, ix, a, n.ID); used > n.Capacity+tol {
			return fmt.Errorf("%w: node %d usage %g exceeds capacity %g",
				ErrInfeasible, n.ID, used, n.Capacity)
		}
	}
	return nil
}
