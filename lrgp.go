// Package repro is the public API of the LRGP library: a from-scratch
// implementation of "Utility Optimization for Event-Driven Distributed
// Infrastructures" (Lumezanu, Bhola, Astley; ICDCS 2006).
//
// The package re-exports the library's stable surface from its internal
// packages. Quickstart:
//
//	problem := &repro.Problem{
//	    Flows: []repro.Flow{{ID: 0, Source: 0, RateMin: 10, RateMax: 1000}},
//	    Nodes: []repro.Node{{ID: 0, Capacity: 450_000,
//	        FlowCost: repro.CostsOf(map[repro.FlowID]float64{0: 3})}},
//	    Classes: []repro.Class{
//	        {ID: 0, Flow: 0, Node: 0, MaxConsumers: 200,
//	            CostPerConsumer: 19, Utility: repro.NewLogUtility(40)},
//	    },
//	}
//	engine, err := repro.NewEngine(problem, repro.Config{Adaptive: true})
//	result := engine.Solve(250)
//
// Layered on top of the optimizer:
//
//   - NewBroker / NewBrokerAutopilot: a pub/sub enactment substrate with
//     token-bucket rate limits and consumer admission control, and the
//     control loop that keeps re-optimizing it;
//   - NewCluster: the optimizer as distributed message-passing agents over
//     in-memory or TCP transports;
//   - NewMultirateEngine: the multirate extension (per-class thinned
//     delivery rates);
//   - AnnealSolve / BruteForceSolve: baselines and ground truth;
//   - BaseWorkload / ScaledWorkload: the paper's evaluation workloads.
//
// See README.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured record.
package repro

import (
	"repro/internal/anneal"
	"repro/internal/broker"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/overlay"
	"repro/internal/transport"
	"repro/internal/utility"
	"repro/internal/workload"
)

// Problem-model types (see internal/model).
type (
	// Problem is a complete optimization-problem instance.
	Problem = model.Problem
	// Flow is a message flow with rate bounds and a source node.
	Flow = model.Flow
	// Class is a set of identical consumers of one flow at one node.
	Class = model.Class
	// Node is an overlay node with finite capacity.
	Node = model.Node
	// Link is a unidirectional overlay link with finite capacity.
	Link = model.Link
	// Costs is a node's or link's immutable per-flow cost record.
	Costs = model.Costs
	// Allocation is a candidate solution (rates + populations, and
	// per-class delivery rates in the multirate extension).
	Allocation = model.Allocation
	// Index precomputes the problem's lookup maps.
	Index = model.Index

	// FlowID, ClassID, NodeID and LinkID identify problem entities.
	FlowID  = model.FlowID
	ClassID = model.ClassID
	NodeID  = model.NodeID
	LinkID  = model.LinkID
)

// Optimizer types (see internal/core).
type (
	// Engine runs synchronous LRGP iterations.
	Engine = core.Engine
	// Config tunes the engine (stepsizes, adaptive gamma, telemetry); the
	// Step shard budget is not in it — it is a fixed multiple of GOMAXPROCS
	// at NewEngine (one shard at GOMAXPROCS 1).
	Config = core.Config
	// Result summarizes a Solve run.
	Result = core.Result
	// StepResult summarizes one iteration.
	StepResult = core.StepResult
)

// Utility types (see internal/utility).
type (
	// UtilityFunction is a strictly concave increasing utility of rate.
	UtilityFunction = utility.Function
	// UtilitySpec is the serializable description of a utility.
	UtilitySpec = utility.Spec
)

// Enactment types (see internal/broker).
type (
	// Broker is the pub/sub substrate that enacts allocations.
	Broker = broker.Broker
	// BrokerAutopilot closes the measure-optimize-enact loop.
	BrokerAutopilot = broker.Autopilot
	// Message is one published event.
	Message = broker.Message
	// Filter is a content-based subscription predicate.
	Filter = broker.Filter
	// Transform mutates messages en route to a class.
	Transform = broker.Transform
)

// Distributed-runtime types (see internal/dist and internal/transport).
type (
	// Cluster runs LRGP as message-passing agents.
	Cluster = dist.Cluster
	// ClusterConfig tunes a cluster (staleness, hosts, multirate).
	ClusterConfig = dist.Config
	// Network provides named message endpoints.
	Network = transport.Network
)

// Baseline types (see internal/anneal and internal/bruteforce).
type (
	// AnnealConfig tunes the simulated-annealing baselines.
	AnnealConfig = anneal.Config
	// AnnealResult reports a completed annealing run.
	AnnealResult = anneal.Result
)

// Multirate-extension types (see internal/multirate).
type (
	// MultirateEngine optimizes with per-class delivery rates; its
	// solutions are Allocations with Delivery set.
	MultirateEngine = multirate.Engine
)

// Overlay types (see internal/overlay).
type (
	// Topology is a directed overlay graph.
	Topology = overlay.Topology
	// FlowSpec declares a flow to route over a topology.
	FlowSpec = overlay.FlowSpec
	// ClassSpec declares a consumer class of a FlowSpec.
	ClassSpec = overlay.ClassSpec
)

// Constructors and entry points.
var (
	// NewEngine builds the synchronous LRGP engine.
	NewEngine = core.NewEngine
	// GreedyPopulations runs only the admission half of LRGP.
	GreedyPopulations = core.GreedyPopulations

	// CostsOf builds a cost record from a map of flow to cost.
	CostsOf = model.CostsOf
	// Validate checks a problem's structural well-formedness.
	Validate = model.Validate
	// NewIndex precomputes a problem's lookup maps.
	NewIndex = model.NewIndex
	// TotalUtility evaluates the objective for an allocation.
	TotalUtility = model.TotalUtility
	// CheckFeasible verifies every constraint of Section 2.
	CheckFeasible = model.CheckFeasible

	// NewLogUtility returns the paper's rank*log(1+r).
	NewLogUtility = utility.NewLog
	// NewPowerUtility returns the paper's rank*r^k.
	NewPowerUtility = utility.NewPower

	// NewBroker builds the enactment substrate.
	NewBroker = broker.New
	// NewBrokerAutopilot wires the re-optimization loop around a broker.
	NewBrokerAutopilot = broker.NewAutopilot

	// NewCluster attaches distributed LRGP agents to a network.
	NewCluster = dist.New
	// NewMemoryNetwork returns an in-process transport.
	NewMemoryNetwork = transport.NewMemory
	// NewTCPNetwork returns a loopback TCP transport.
	NewTCPNetwork = transport.NewTCP

	// NewMultirateEngine builds the multirate extension's engine.
	NewMultirateEngine = multirate.NewEngine
	// EnactMultirate applies a multirate allocation to a broker.
	EnactMultirate = multirate.Enact

	// AnnealSolve runs the full-state simulated-annealing baseline.
	AnnealSolve = anneal.Solve
	// AnnealSolveRatesGreedy runs the rates-only + greedy variant.
	AnnealSolveRatesGreedy = anneal.SolveRatesGreedy
	// BruteForceSolve exhaustively solves tiny instances.
	BruteForceSolve = bruteforce.Solve

	// BaseWorkload returns the paper's Table 1 workload.
	BaseWorkload = workload.Base
	// ScaledWorkload returns a Section 4.3 scaled variant.
	ScaledWorkload = workload.Scaled
	// ParseWorkload resolves a workload specifier (see workload.Parse).
	ParseWorkload = workload.Parse
	// TradeDataWorkload, LatestPriceWorkload and HeterogeneousWorkload
	// are the Section 1.1 scenario presets.
	TradeDataWorkload     = workload.TradeData
	LatestPriceWorkload   = workload.LatestPrice
	HeterogeneousWorkload = workload.Heterogeneous

	// BuildOverlayProblem routes flows over a topology into a Problem.
	BuildOverlayProblem = overlay.Build
	// TwoStageSolve runs the Section 2.4 two-stage approximation.
	TwoStageSolve = overlay.TwoStageSolve
)
