// Package core implements LRGP (Lagrangian Rates, Greedy Populations), the
// distributed utility-optimization algorithm of Lumezanu, Bhola and Astley,
// "Utility Optimization for Event-Driven Distributed Infrastructures"
// (ICDCS 2006), Section 3.
//
// A single LRGP iteration consists of:
//
//  1. Rate allocation (Algorithm 1): each flow source maximizes
//     sum_j n_j U_j(r) - r*(PL_i + PB_i) given the previous iteration's
//     populations and prices (Equation 7).
//  2. Consumer allocation (Algorithm 2): each node greedily admits
//     consumers in decreasing benefit-cost order (Equation 10) within the
//     node capacity.
//  3. Price computation: each node dampens its price toward the best
//     unsatisfied benefit-cost ratio, or pushes it up proportionally to
//     overload (Equation 12); each link adjusts its price by gradient
//     projection (Equation 13).
//
// The Engine in this package is the synchronous, in-process formulation the
// paper evaluates; package dist runs the same three algorithms as
// message-passing agents.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// Default stepsizes, and the adaptive controller's bounds and thresholds.
// The paper constrains the node-price stepsize gamma to [0.001, 0.1] after
// the damping study (Section 4.2) and adapts it by +0.001 per quiet
// iteration and halving on fluctuation; it starts at the upper bound. The
// dead band and surge thresholds are the refinements documented in
// EXPERIMENTS.md (see gammaBank). All prices start at zero.
const (
	DefaultGamma         = 0.1
	DefaultGammaMin      = 0.001
	DefaultGammaMax      = 0.1
	DefaultGammaStep     = 0.001
	DefaultGammaDeadband = 0.01
	DefaultGammaSurge    = 0.3
	DefaultLinkGamma     = 0.001
)

// Config tunes an Engine. The zero value is normalized to the paper's
// defaults: fixed gamma = 0.1, link gamma 0.001 and zero initial
// prices.
//
// How far a Step fans out is not configured: the shard budget is
// shardsPerProc × runtime.GOMAXPROCS(0), read once by NewEngine, and 1 at
// GOMAXPROCS 1. Step fans out whole connected components of the topology
// over the widest of budget, budget/2, …, GOMAXPROCS shards they pack onto,
// so results are bit-identical for every budget; entangled topologies
// (fewer balanced components than GOMAXPROCS) and workloads with fewer than
// minParallelItems flows, nodes and links run one shard on the caller's
// goroutine (DESIGN.md §5).
type Config struct {
	// Gamma is the fixed Equation 12 stepsize: it damps the price toward
	// the benefit-cost price when the node is within capacity (the first
	// branch's gamma1) and scales the overload push when usage exceeds
	// capacity (the second branch's gamma2); the paper sets gamma1 =
	// gamma2 throughout its experiments. Default DefaultGamma.
	Gamma float64
	// Adaptive enables the per-node adaptive gamma heuristic of Section
	// 4.2: start at DefaultGammaMax, add DefaultGammaStep per iteration
	// while the price is not fluctuating, halve on fluctuation, clamp to
	// [DefaultGammaMin, DefaultGammaMax]. When set, Gamma is
	// ignored.
	Adaptive bool
	// GammaLiteral selects the paper's Section 4.2 heuristic exactly as
	// written: any sign flip of the price movement halves gamma and any
	// quiet iteration adds the step, with no dead band and no surge
	// ramp. Used by the controller-ablation experiment; the default
	// (false) enables the dead band and surge refinements documented in
	// EXPERIMENTS.md.
	GammaLiteral bool
	// LinkGamma is the gradient-projection stepsize for link prices
	// (Equation 13). Default DefaultLinkGamma.
	LinkGamma float64
	// Telemetry, when non-nil, receives per-Step instrumentation: stage
	// wall times, utility, overloads, price-update counts and (from
	// Solve) convergence state. The default nil keeps Step free of all
	// timing calls and observation work — the disabled path is a few
	// predictable branches and preserves the 0 allocs/op guarantee. The
	// enabled path is lock-free and also allocation-free; its only cost
	// is the clock reads and atomic updates.
	Telemetry *telemetry.EngineMetrics

	// workers is the shard budget — the widest plan Step may run — 0
	// until normalized resolves it (shardBudget). Only tests set it
	// (export_test.go), to get shard counts the host does not have.
	workers int
}

// shardsPerProc is how many shards the budget allows per GOMAXPROCS. With
// more shards than cores the runtime spreads heavy components over every
// core instead of leaving one shard's core idle at the barrier behind
// another's hot pods; end to end on demand_churn 2 beat 4 (DESIGN.md §5).
const shardsPerProc = 2

// shardBudget is the shard budget under GOMAXPROCS procs: shardsPerProc
// shards per proc, and one shard with no pool at 1.
func shardBudget(procs int) int {
	if procs <= 1 {
		return 1
	}
	return shardsPerProc * procs
}

// WithDefaults returns the configuration with every unset field replaced
// by its default, exactly as NewEngine applies them; model.Option decides
// what each number means and refuses a stepsize that is NaN, ±Inf or
// negative. Other packages that drive the exported primitives directly
// (e.g. the distributed runtime) must normalize through this before use.
func (c Config) WithDefaults() (Config, error) {
	var errs [3]error
	c.Gamma, errs[0] = model.Option("Config.Gamma", c.Gamma, DefaultGamma)
	c.LinkGamma, errs[1] = model.Option("Config.LinkGamma", c.LinkGamma, DefaultLinkGamma)
	c.workers, errs[2] = model.Option("Config.workers", c.workers, shardBudget(runtime.GOMAXPROCS(0)))
	if err := errors.Join(errs[:]...); err != nil {
		return Config{}, fmt.Errorf("core: %w", err)
	}
	return c, nil
}
