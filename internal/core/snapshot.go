package core

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Snapshot is a full diagnostic view of the engine's state at one
// iteration, for observability tooling (lrgp-sim -verbose) and debugging.
type Snapshot struct {
	// Iteration is the number of completed iterations.
	Iteration int
	// Utility is the current objective value.
	Utility float64
	// Allocation holds the rates and populations.
	Allocation model.Allocation
	// NodePrices, LinkPrices and Gammas mirror the per-resource state.
	NodePrices []float64
	LinkPrices []float64
	Gammas     []float64
	// NodeUsage and NodeCapacity give each node's load; LinkUsage and
	// LinkCapacity each link's.
	NodeUsage    []float64
	NodeCapacity []float64
	LinkUsage    []float64
	LinkCapacity []float64
	// FlowActive marks flows participating in iterations.
	FlowActive []bool
	// Workers is the engine's shard budget (shardsPerProc × GOMAXPROCS at
	// NewEngine, 1 at GOMAXPROCS 1) and Sharded reports whether Step
	// actually fans out over the pool (Workers > 1 and the crossing-writes
	// analysis proved the problem componentized, DESIGN.md §5; len(ShardWork)
	// is how wide); results are identical either way, so these matter only
	// for performance diagnostics.
	Workers int
	Sharded bool
	// ShardWork lists, per plan shard, the items the last Step recomputed,
	// and ShardImbalance its max ÷ mean (StepResult.ShardImbalance).
	ShardWork      []int
	ShardImbalance float64
}

// String renders a one-line summary of the snapshot: iteration, utility,
// peak node and link load, and the execution mode (worker count, whether
// Step is sharded over the pool).
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iter=%d utility=%.1f", s.Iteration, s.Utility)
	if load, ok := peakLoad(s.NodeUsage, s.NodeCapacity); ok {
		fmt.Fprintf(&b, " peak-node-load=%.1f%%", 100*load)
	}
	if load, ok := peakLoad(s.LinkUsage, s.LinkCapacity); ok {
		fmt.Fprintf(&b, " peak-link-load=%.1f%%", 100*load)
	}
	mode := "serial"
	if s.Sharded {
		mode = "sharded"
	}
	fmt.Fprintf(&b, " workers=%d (%s)", s.Workers, mode)
	return b.String()
}

// peakLoad returns the largest usage/capacity ratio, skipping resources
// with non-positive capacity; ok is false when no resource qualifies.
func peakLoad(usage, capacity []float64) (load float64, ok bool) {
	for i := range usage {
		if i >= len(capacity) || capacity[i] <= 0 {
			continue
		}
		if r := usage[i] / capacity[i]; !ok || r > load {
			load, ok = r, true
		}
	}
	return load, ok
}

// Snapshot captures the engine's complete current state. All slices are
// copies.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Iteration:    e.iteration,
		Utility:      e.Utility(),
		Allocation:   e.Allocation(),
		NodePrices:   e.NodePrices(),
		LinkPrices:   e.LinkPrices(),
		Gammas:       e.Gammas(),
		NodeUsage:    make([]float64, len(e.p.Nodes)),
		NodeCapacity: make([]float64, len(e.p.Nodes)),
		LinkUsage:    make([]float64, len(e.p.Links)),
		LinkCapacity: make([]float64, len(e.p.Links)),
		FlowActive:   make([]bool, len(e.p.Flows)),
		Workers:      e.cfg.workers,
		Sharded:      e.plan.shards > 1,

		ShardImbalance: e.shardImbalance(),
	}
	for k := range e.sh[:e.plan.shards] {
		s.ShardWork = append(s.ShardWork, e.sh[k].work)
	}
	copy(s.FlowActive, e.active)

	a := model.Allocation{Rates: e.rates, Consumers: e.consumers}
	for b := range e.p.Nodes {
		s.NodeUsage[b] = model.NodeUsage(e.p, e.ix, a, model.NodeID(b))
		s.NodeCapacity[b] = e.p.Nodes[b].Capacity
	}
	for l := range e.p.Links {
		s.LinkUsage[l] = model.LinkUsage(e.p, e.ix, a, model.LinkID(l))
		s.LinkCapacity[l] = e.p.Links[l].Capacity
	}
	return s
}
