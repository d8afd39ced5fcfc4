package core

import "repro/internal/model"

// GreedyPopulations runs the Algorithm 2 greedy consumer allocation at
// every node for the given flow rates, as a standalone primitive: it
// returns the admitted populations (indexed by ClassID) and the resulting
// total utility. Every flow is treated as active.
//
// This is the "Greedy Populations" half of LRGP exposed for reuse: the
// simulated-annealing baseline uses it to evaluate candidate rate vectors,
// and the admission-control ablation uses it to enact populations for
// externally chosen rates.
func GreedyPopulations(p *model.Problem, ix *model.Index, rates []float64) ([]int, float64) {
	consumers := make([]int, len(p.Classes))
	active := make([]bool, len(p.Flows))
	for i := range active {
		active[i] = true
	}
	for b := range p.Nodes {
		admitNode(p, ix, model.NodeID(b), rates, active, consumers, nil, nil, nil, nil, 0)
	}
	util := 0.0
	for j := range p.Classes {
		if n := consumers[j]; n > 0 {
			c := &p.Classes[j]
			util += float64(n) * c.Utility.Value(rates[c.Flow])
		}
	}
	return consumers, util
}
