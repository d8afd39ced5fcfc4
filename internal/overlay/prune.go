package overlay

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

// Two-stage approximation of Section 2.4. The constraint equations assume
// a flow is routed to every node hosting one of its classes, even when the
// optimizer then admits zero consumers there — so relay and leaf nodes on
// dead branches still pay the flow-node cost F_{b,i} and dead links still
// carry the flow. The paper proposes (and defers) a second stage: prune
// the paths whose classes all received n_j = 0, zero the corresponding
// L_{l,i} and F_{b,i} coefficients, and re-solve. This file implements
// that second stage on top of the overlay substrate, where "zeroing
// coefficients" is performed honestly by re-routing each flow's
// dissemination tree to only its surviving subscribers.

// StageResult captures one stage of the two-stage solve.
type StageResult struct {
	// Problem is the instance the stage optimized.
	Problem *model.Problem
	// Result is the LRGP outcome on it.
	Result core.Result
}

// TwoStageResult is the outcome of TwoStageSolve.
type TwoStageResult struct {
	// Stage1 is the full-routing solve; Stage2 the pruned re-solve.
	Stage1, Stage2 StageResult
	// PrunedClasses counts classes dropped because stage 1 admitted no
	// consumers for them.
	PrunedClasses int
	// PrunedNodeVisits counts (flow, node) routing entries removed, and
	// PrunedLinkVisits the (flow, link) entries removed.
	PrunedNodeVisits int
	PrunedLinkVisits int
	// UtilityGain is Stage2 utility minus Stage1 utility (>= 0 in
	// practice: pruning only frees resources).
	UtilityGain float64
}

// BuildPruned rebuilds the problem with each flow routed only to the
// subscribers whose classes keep[classIndex] marks as surviving. Classes
// not kept are dropped from the new problem. The classIndex follows the
// flat class order produced by Build for the same flows slice.
func BuildPruned(t *Topology, nodeCapacity float64, flows []FlowSpec, keep []bool) (*model.Problem, error) {
	pruned := make([]FlowSpec, len(flows))
	idx := 0
	for fi, fs := range flows {
		cp := fs
		cp.Classes = nil
		for _, cs := range fs.Classes {
			if idx >= len(keep) {
				return nil, fmt.Errorf("%w: keep mask shorter than class list", ErrBadBuild)
			}
			if keep[idx] {
				cp.Classes = append(cp.Classes, cs)
			}
			idx++
		}
		pruned[fi] = cp
	}
	if idx != len(keep) {
		return nil, fmt.Errorf("%w: keep mask has %d entries, classes total %d", ErrBadBuild, len(keep), idx)
	}
	return Build(t, nodeCapacity, pruned)
}

// TwoStageSolve runs the Section 2.4 two-stage approximation: stage 1
// optimizes with every flow routed to all of its class-hosting nodes;
// stage 2 drops the classes that received no consumers, re-routes the
// dissemination trees to the survivors, and re-optimizes. iters bounds
// each stage's LRGP run.
func TwoStageSolve(t *Topology, nodeCapacity float64, flows []FlowSpec, cfg core.Config, iters int) (*TwoStageResult, error) {
	p1, err := Build(t, nodeCapacity, flows)
	if err != nil {
		return nil, fmt.Errorf("stage 1: %w", err)
	}
	e1, err := core.NewEngine(p1, cfg)
	if err != nil {
		return nil, fmt.Errorf("stage 1: %w", err)
	}
	r1 := e1.Solve(iters)

	keep := make([]bool, len(p1.Classes))
	kept := 0
	for j, n := range r1.Allocation.Consumers {
		if n > 0 {
			keep[j] = true
			kept++
		}
	}
	out := &TwoStageResult{
		Stage1:        StageResult{Problem: p1, Result: r1},
		PrunedClasses: len(p1.Classes) - kept,
	}
	if kept == 0 {
		// Nothing survives: stage 2 would be an empty problem. Report
		// stage 1 as final.
		out.Stage2 = out.Stage1
		return out, nil
	}

	p2, err := BuildPruned(t, nodeCapacity, flows, keep)
	if err != nil {
		return nil, fmt.Errorf("stage 2: %w", err)
	}
	out.PrunedNodeVisits = routingEntries(p1) - routingEntries(p2)
	out.PrunedLinkVisits = linkEntries(p1) - linkEntries(p2)

	e2, err := core.NewEngine(p2, cfg)
	if err != nil {
		return nil, fmt.Errorf("stage 2: %w", err)
	}
	r2 := e2.Solve(iters)
	out.Stage2 = StageResult{Problem: p2, Result: r2}
	out.UtilityGain = r2.Utility - r1.Utility
	return out, nil
}

func routingEntries(p *model.Problem) int {
	n := 0
	for _, node := range p.Nodes {
		n += node.FlowCost.Len()
	}
	return n
}

func linkEntries(p *model.Problem) int {
	n := 0
	for _, l := range p.Links {
		n += l.FlowCost.Len()
	}
	return n
}
