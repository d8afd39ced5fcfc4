package core

import (
	"slices"

	"repro/internal/model"
)

// Consumer allocation (Algorithm 2, step 2; Section 3.2). Given the current
// flow rates, each node admits consumers greedily in decreasing order of
// benefit-cost ratio
//
//	BC_j = U_j(r_flowMap(j)) / (G_{b,j} * r_flowMap(j)),
//
// one consumer at a time, until either the class is fully admitted
// (n_j = n_j^max) or the node capacity c_b is reached. The budget available
// for consumers is the capacity left after the consumer-independent
// flow-node costs sum_i F_{b,i} r_i. If those costs alone exceed c_b, every
// class at the node stays at n_j = 0.

// admitResult reports one node's greedy allocation outcome.
type admitResult struct {
	// used is used_b(t): total node resource consumed after allocation,
	// including flow-node costs.
	used float64
	// bestUnsatisfied is BC(b,t) of Equation 11: the highest benefit-cost
	// ratio among classes with n_j < n_j^max, or 0 when every class is
	// fully admitted (relaxing the constraint buys nothing).
	bestUnsatisfied float64
	// popChanged reports whether any population actually changed value,
	// tracked only when the caller passes a popEpoch slice.
	popChanged bool
}

// classBC pairs a class with its benefit-cost ratio for sorting.
type classBC struct {
	id model.ClassID
	bc float64
	// unitCost is G_{b,j} * r: node resource per admitted consumer.
	unitCost float64
	// value is U_j(r), cached for the utility bookkeeping.
	value float64
}

// admitNode runs the greedy allocation for node b, writing the resulting
// populations into consumers (indexed by ClassID). active reports whether a
// flow participates this iteration; classes of inactive flows are forced to
// zero and ignored.
//
// When popEpoch is non-nil, every population write that changes a value
// also records epoch in popEpoch[class] and sets popChanged on the result;
// the incremental engine uses this to seed the next iteration's dirty set.
// Callers outside the engine (greedy seeding, the distributed node agent)
// pass nil, 0 to disable tracking. vc, when non-nil, must hold the basis
// of rates (see valueCache); the same outside callers pass nil and get the
// per-class Utility.Value call.
func admitNode(
	p *model.Problem,
	ix *model.Index,
	b model.NodeID,
	rates []float64,
	active []bool,
	consumers []int,
	scratch []classBC,
	vc *valueCache,
	popEpoch []int,
	epoch int,
) admitResult {
	node := &p.Nodes[b]
	res := admitResult{}

	flowUse := 0.0
	costs := ix.FlowCostsByNode(b)
	for k, i := range ix.FlowsByNode(b) {
		if active[i] {
			flowUse += costs[k] * rates[i]
		}
	}

	// Rank classes by benefit-cost ratio (Equation 10). The ratio does
	// not depend on n_j, so a single sort implements the paper's
	// "increase the best class until full, then move on" loop.
	ranked := scratch[:0]
	for _, cid := range ix.ClassesByNode(b) {
		c := &p.Classes[cid]
		if !active[c.Flow] {
			setPop(consumers, popEpoch, epoch, cid, 0, &res)
			continue
		}
		r := rates[c.Flow]
		value := vc.value(c, cid, r)
		if value <= 0 {
			// A consumer with non-positive utility at this rate would
			// spend node resource without increasing the objective
			// (possible for utilities that start negative or at zero
			// when r is pinned very low); never admit it.
			setPop(consumers, popEpoch, epoch, cid, 0, &res)
			continue
		}
		unit := c.CostPerConsumer * r
		ranked = append(ranked, classBC{
			id:       cid,
			bc:       value / unit,
			unitCost: unit,
			value:    value,
		})
	}
	// slices.SortFunc avoids sort.Slice's interface boxing and reflection
	// swaps in this per-node, per-iteration sort. The id tie-break makes
	// the order total, so the (unstable) sort is still deterministic.
	slices.SortFunc(ranked, func(x, y classBC) int {
		switch {
		case x.bc > y.bc:
			return -1
		case x.bc < y.bc:
			return 1
		case x.id < y.id:
			return -1
		case x.id > y.id:
			return 1
		default:
			return 0
		}
	})

	budget := node.Capacity - flowUse
	used := flowUse
	best := 0.0
	for _, cb := range ranked {
		c := &p.Classes[cb.id]
		n := 0
		if budget > 0 {
			n = int(budget / cb.unitCost)
			if n > c.MaxConsumers {
				n = c.MaxConsumers
			}
			// budget/unitCost can round up across an integer boundary
			// (e.g. 3 - 2^-52 dividing to exactly 3.0), admitting a
			// consumer whose true cost overshoots the remaining budget;
			// step back until the packing really fits.
			for n > 0 && float64(n)*cb.unitCost > budget {
				n--
			}
		}
		setPop(consumers, popEpoch, epoch, cb.id, n, &res)
		cost := float64(n) * cb.unitCost
		budget -= cost
		used += cost
		if n < c.MaxConsumers && cb.bc > best {
			best = cb.bc
		}
	}
	res.used, res.bestUnsatisfied = used, best
	return res
}

// setPop writes consumers[cid] = n, recording the change epoch when the
// value moves and tracking is enabled. Skipping the write on equal values
// is what makes the epoch meaningful: a re-admission that reproduces the
// same population leaves the class clean.
func setPop(consumers, popEpoch []int, epoch int, cid model.ClassID, n int, res *admitResult) {
	if consumers[cid] == n {
		return
	}
	consumers[cid] = n
	if popEpoch != nil {
		popEpoch[cid] = epoch
		res.popChanged = true
	}
}
