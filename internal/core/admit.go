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
}

// admitNode runs the greedy allocation for node b, writing the resulting
// populations into consumers (indexed by ClassID). active reports whether a
// flow participates this iteration; classes of inactive flows are forced to
// zero and ignored.
//
// delivery, when non-nil, is the rate each class (indexed by ClassID) is
// delivered at — the multirate extension's d_j <= r_i, which sets the
// class's utility and per-consumer cost G_{b,j} d_j; flow-node costs stay
// on the flow rates. nil delivers every class at its flow's rate, which is
// single-rate LRGP. vc must then be nil, as its basis is the flow rates.
//
// rank, when non-nil, carries the node's ranking from one call to the
// next (see ranking); callers that keep no state (greedy seeding) pass nil
// and rank in index order. Either way the result is the same.
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
	rates, delivery []float64,
	active []bool,
	consumers []int,
	scratch []classBC,
	rank *ranking,
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

	// Rank classes by benefit-cost ratio (Equation 10). The ratio does not
	// depend on n_j, so a single sort implements the paper's "increase the
	// best class until full, then move on" loop. The candidates are gathered
	// in the order the node's last sort left in rank, if any (see ranking).
	classes := ix.ClassesByNode(b)
	var order, at []model.ClassID
	if rank != nil && len(classes) > 1 {
		// A node with one class has one order; carrying it only costs.
		order, at = rank.order, rank.at
		if at == nil {
			at = classes
		}
	}
	ranked, rest := scratch[:0], 0
	for pass := 0; ; pass++ {
		nan := false
		for k, cid := range classes {
			if order != nil {
				cid = order[at[k]]
			}
			c := &p.Classes[cid]
			value, r := 0.0, rates[c.Flow]
			if delivery != nil {
				r = delivery[cid]
			}
			if active[c.Flow] {
				value = vc.value(c, cid, r)
			}
			if value <= 0 {
				// An inactive flow's class, or a consumer with non-positive
				// utility at this rate, which would spend node resource
				// without increasing the objective (possible for utilities
				// that start negative or at zero when r is pinned very
				// low): never admit it.
				setPop(consumers, popEpoch, epoch, cid, 0, &res)
				if order != nil {
					// Every slot up to this one has been read.
					order[at[rest]] = cid
					rest++
				}
				continue
			}
			unit := c.CostPerConsumer * r
			bc := value / unit
			nan = nan || bc != bc
			ranked = append(ranked, classBC{id: cid, bc: bc, unitCost: unit})
		}
		if !nan || order == nil || pass > 0 {
			break
		}
		// A NaN ratio leaves the comparator without a total order, so the
		// sorted result would depend on the input order: gather again in
		// index order, the order a nil rank uses.
		for k, cid := range classes {
			order[at[k]] = cid
		}
		ranked, rest = ranked[:0], 0
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
	if order != nil {
		for k, cb := range ranked {
			order[at[rest+k]] = cb.id
		}
	}

	budget := node.Capacity - flowUse
	used := flowUse
	best := 0.0
	for _, cb := range ranked {
		c := &p.Classes[cb.id]
		n := 0
		if budget > 0 {
			// Compare before converting: a quotient of 2^63 or more (a tiny
			// unit cost under a large budget) has no int value, and a NaN
			// one admits nobody.
			if q := budget / cb.unitCost; q >= float64(c.MaxConsumers) {
				n = c.MaxConsumers
			} else if q > 0 {
				n = int(q)
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

// ranking is where a caller carries node rankings from one admission to
// the next: the k-th class of a node's last ranking is order[at[k]], at
// being the node's ClassesByNode list when nil. The Engine keeps one order
// indexed by ClassID for every node — the node's own classes are its slots,
// so it needs no room per node and shards never share one — and a
// NodeAllocator one of its node's size, with at = 0, 1, …. Start order as a
// permutation of each node's classes over its slots (the identity does);
// admitNode keeps it one, writing back the inadmissible classes, then the
// ranking.
//
// Carrying the order is exact. For non-NaN ratios the comparator is a
// strict total order, so the sorted sequence is the same whatever order
// the candidates are gathered in, and a warm re-solve, which moves rates
// only a little, hands the sort nearly sorted input. A NaN ratio breaks
// totality; admitNode then resets the node's order to index order and
// gathers again, which is what a stateless caller's nil rank does.
type ranking struct {
	order, at []model.ClassID
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
