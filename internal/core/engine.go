package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Engine runs synchronous LRGP iterations over a problem. It is the
// colocated formulation discussed in Section 3.5: all per-flow and per-node
// algorithm pieces execute in one process, in the same data-dependency
// order as the distributed version (rates, then populations, then prices).
//
// With GOMAXPROCS > 1 at NewEngine Step fans whole connected components of
// the topology out over a persistent worker pool, up to shardsPerProc shards
// per GOMAXPROCS; entangled topologies run one shard on the caller's
// goroutine. Results are bit-identical for any shard count. The pool's
// goroutines live only inside Step's one barrier, so Step remains
// synchronous from the caller's point of view.
//
// An Engine is still not safe for concurrent use: no method — including
// the mid-run mutators SetFlowActive, SetClassDemand and SetNodeCapacity —
// may run concurrently with Step or with each other. Wrap it or use
// package dist for a concurrent, message-passing deployment.
type Engine struct {
	p   *model.Problem
	ix  *model.Index
	cfg Config

	iteration int
	rates     []float64
	consumers []int
	active    []bool

	// nodePrices/linkPrices and the capacity mirrors below are the SoA
	// operands of the Eq. 12/13 price sweeps: flat float64 arrays indexed
	// by node/link, so the per-iteration sweep is a branch-light pass over
	// contiguous memory. nodeCap/linkCap mirror the Problem capacities of
	// the armed constraints, written by rearm (NewEngine, Reset*) and
	// SetNodeCapacity, the only supported mutation points.
	nodePrices []float64
	linkPrices []float64
	nodeCap    []float64
	linkCap    []float64
	gamma      *gammaBank

	solvers []*rateSolver

	// plan is Step's schedule (see stagePlan): fixed at NewEngine — Reset
	// preserves topology — and rebuilt only by ResetRouting, which changes
	// it. sh holds one shardState per plan shard and pool is non-nil once a
	// plan has had more than one; both only ever grow (adoptPlan).
	plan *stagePlan
	sh   []shardState
	pool *workerPool
	// shardFn is stepShard bound once, so dispatching a Step allocates
	// nothing.
	shardFn func(shard int)
	// stageMark holds shard 0's clock readings after its rate and node
	// lists, written only when Config.Telemetry is set.
	stageMark [2]time.Time
	// closed is set by Close; stepping a closed engine panics
	// deterministically instead of racing the pool shutdown.
	closed bool

	// Incremental dirty-set state (DESIGN.md §8). The epoch slices record
	// the iteration at which each quantity last changed value; a stage
	// consults them to decide whether its cached outputs are still exact.
	// The forced flags are set by mutators and Reset to dirty items whose
	// inputs changed outside Step, and cleared by the recompute they
	// trigger.
	flowForced []bool
	nodeForced []bool
	linkForced []bool
	// rateEpoch[i]: iteration e.rates[i] last changed; popEpoch[j]:
	// iteration e.consumers[j] last changed; nodePriceEpoch[b] /
	// linkPriceEpoch[l]: iteration the price last moved.
	rateEpoch      []int
	popEpoch       []int
	nodePriceEpoch []int
	linkPriceEpoch []int
	// views[i] is flow i's armed path view: the armed nodes and links on
	// its path, in path order (see pathView). nodeArmed/linkArmed hold a bit
	// per node/link, set iff some shard's armed list holds it. candNodes,
	// candLinks and flowMark are rearm's scratch marks, all clear between
	// calls; rearmTested is the number of constraints the last re-arm tested.
	views                []pathView
	nodeArmed, linkArmed bitset
	candNodes, candLinks bitset
	flowMark             bitset
	rearmTested          int
	// nodeUsed/nodeBest cache admitNode's outputs per node; linkUsed
	// caches each link's usage sum. A skipped constraint reuses these
	// verbatim — they are the exact floats the skipped recomputation
	// would have produced.
	nodeUsed []float64
	nodeBest []float64
	linkUsed []float64
	// util caches the last computed objective; utilStale forces a full
	// recomputation (set by mutators and Reset).
	util      float64
	utilStale bool
	// flowUtil[i] caches flow i's objective contribution
	// (sum over the flow's classes of n_j * U_j(r_i)), so the per-Step
	// objective refresh touches only flows whose rate or populations moved
	// plus an O(flows) sum — a full class sweep would dominate Step at
	// metro scale. flowUtilEpoch[i] is the iteration the cache was last
	// written.
	flowUtil      []float64
	flowUtilEpoch []int

	// det follows the one utility series this engine produces, across Solve
	// calls, mutators and Reset*: the paper's optimizer runs all the time
	// and is judged on one continuing series (§2.1, §4.3), so a warm
	// re-solve continues the window instead of refilling it. work holds the
	// last Step's DirtyFlows/SkippedNodes/SkippedLinks and workSteady
	// whether they equalled the Step's before; settled is set by a Solve
	// that converged and cleared by anything that could move the
	// allocation (Step, the mutators, Reset*). See solve for the rule.
	det        *metrics.ConvergenceDetector
	work       [3]int
	workSteady bool
	settled    bool

	// vc is the flow-basis value cache (DESIGN.md §8): what the node and
	// utility stages read instead of calling Utility.Value per class.
	vc valueCache
	// rank carries each node's admission ranking from one recompute to the
	// next (see ranking): one order indexed by ClassID, the identity at
	// NewEngine. Class attachments never change, so neither Reset nor
	// ResetRouting touches it.
	rank ranking
}

// valueCache holds, per flow whose classes all have the form
// U_j(r) = Scale_j * g(r) (rateSolver.cached), the shared factor g(r_i) at
// the flow's current rate, and per class its Scale_j. scale[j] * basis[i]
// is then the expression Log.Value and Power.Value evaluate — one
// multiplication of the same two floats — so it is the same float, at one
// transcendental per flow per rate change instead of one per class per
// stage. basis[i] is NaN for a flow with no such form; its classes keep
// the interface call.
//
// basis[i] is written wherever e.rates[i] is: by the rate stage when the
// rate moves, by SetFlowActive, and by NewEngine and warmRestart (which
// also refill scale, after the solvers re-bind). Its readers — admitNode
// and flowUtilItem — run later in the same shard's stepShard, so a shard
// only ever reads what it wrote itself.
type valueCache struct {
	basis []float64
	scale []float64
}

// value returns U_j(r) for class cid of flow c.Flow at that flow's current
// rate r; a nil cache is the plain interface call.
func (vc *valueCache) value(c *model.Class, cid model.ClassID, r float64) float64 {
	if vc != nil {
		if g := vc.basis[c.Flow]; g == g {
			return vc.scale[cid] * g
		}
	}
	return c.Utility.Value(r)
}

// shardState is one plan shard's private working state; everything else a
// shard writes is indexed by the flows, nodes and links its plan lists
// hold. The accumulators are reduced by the caller after the
// barrier: max (overloads), integer sum (counters) and boolean OR (changed
// flags) are all order-independent, so the result is bit-identical to the
// serial scan.
type shardState struct {
	// nodes and links are the armed sublists of the shard's plan lists —
	// what Step sweeps (see rearm); each keeps the capacity to hold its whole
	// plan list, so a wake's sorted insert allocates nothing.
	nodes, links []int32
	// scratch is the admission sort buffer, sized by the widest node, not
	// the class count.
	scratch []classBC
	// touchIDs is the dedup'd list of flows whose populations the
	// admission stage moved this iteration; touchSeen[i] is the iteration
	// flow i last entered it.
	touchIDs  []int32
	touchSeen []int

	overNode, overLink float64
	// work is the items the shard recomputed in the last Step.
	work                       int
	dirtyFlows                 int
	skippedNodes, skippedLinks int
	rateChanged, popChanged    bool
}

// StepResult summarizes one LRGP iteration.
type StepResult struct {
	// Iteration is 1-based.
	Iteration int
	// Utility is the objective value (Equation 1) after the iteration's
	// consumer allocation.
	Utility float64
	// MaxNodeOverload is the largest node usage minus capacity across
	// nodes (positive only when flow-node costs alone exceed some node's
	// capacity; the greedy step never overshoots otherwise).
	MaxNodeOverload float64
	// MaxLinkOverload is the largest link usage minus capacity.
	MaxLinkOverload float64
	// StageNanos holds the wall time of the rate, admission and
	// link-price stages (indexed by telemetry.StageRate/StageAdmission/
	// StagePrice) as the caller's goroutine ran them; the price slot also
	// holds the wait for the other shards. Populated only when
	// Config.Telemetry is set; all zero otherwise, so the untelemetered
	// Step never reads the clock.
	StageNanos [3]int64
	// DirtyFlows counts flows whose rate problem was re-solved this
	// iteration; SkippedNodes and SkippedLinks count the armed constraints —
	// the ones Step sweeps: they hold a price, or a flow crosses them and
	// either some rate in the box could fill them or they carry a class —
	// that reused their cached admission/usage instead of recomputing. A
	// node or link parked at price 0 is not swept and counts nowhere.
	// Deterministic for any worker count.
	DirtyFlows   int
	SkippedNodes int
	SkippedLinks int
	// ShardImbalance is the largest shard's share of this iteration's
	// recomputed items (flows re-solved, nodes re-admitted, links re-summed)
	// over the mean share: the single-barrier schedule's work ÷ span, so
	// shards ÷ ShardImbalance bounds the Step's speedup on any number of
	// cores. 1 on a one-shard plan and when nothing was recomputed;
	// deterministic, but by construction it depends on the worker count.
	ShardImbalance float64
}

// NewEngine validates the problem and prepares an engine. The initial state
// is the LRGP starting point: all rates at r^min, all populations zero, all
// prices at the configured initial values.
func NewEngine(p *model.Problem, cfg Config) (*Engine, error) {
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	ix := model.NewIndex(p)

	e := &Engine{
		p:          p,
		ix:         ix,
		cfg:        c,
		rates:      make([]float64, len(p.Flows)),
		consumers:  make([]int, len(p.Classes)),
		active:     make([]bool, len(p.Flows)),
		nodePrices: make([]float64, len(p.Nodes)),
		linkPrices: make([]float64, len(p.Links)),
		nodeCap:    make([]float64, len(p.Nodes)),
		linkCap:    make([]float64, len(p.Links)),
		gamma:      newGammaBank(c.GammaLiteral, len(p.Nodes)),
		solvers:    make([]*rateSolver, len(p.Flows)),

		flowForced:     make([]bool, len(p.Flows)),
		nodeForced:     make([]bool, len(p.Nodes)),
		linkForced:     make([]bool, len(p.Links)),
		rateEpoch:      make([]int, len(p.Flows)),
		popEpoch:       make([]int, len(p.Classes)),
		nodePriceEpoch: make([]int, len(p.Nodes)),
		linkPriceEpoch: make([]int, len(p.Links)),
		nodeUsed:       make([]float64, len(p.Nodes)),
		nodeBest:       make([]float64, len(p.Nodes)),
		linkUsed:       make([]float64, len(p.Links)),
		det:            metrics.NewConvergenceDetector(0, 0),
		flowUtil:       make([]float64, len(p.Flows)),
		flowUtilEpoch:  make([]int, len(p.Flows)),
		views:          make([]pathView, len(p.Flows)),
		nodeArmed:      newBitset(len(p.Nodes)),
		linkArmed:      newBitset(len(p.Links)),
		candNodes:      newBitset(len(p.Nodes)),
		candLinks:      newBitset(len(p.Links)),
		flowMark:       newBitset(len(p.Flows)),
		vc: valueCache{
			basis: make([]float64, len(p.Flows)),
			scale: make([]float64, len(p.Classes)),
		},
		rank: ranking{order: make([]model.ClassID, len(p.Classes))},
	}
	for j := range e.rank.order {
		e.rank.order[j] = model.ClassID(j)
	}
	e.shardFn = e.stepShard
	e.adoptPlan(newStagePlan(ix, e.nodePrices, e.linkPrices, c.workers, nil, model.RoutingDelta{}))
	for i := range p.Flows {
		e.rates[i] = p.Flows[i].RateMin
		e.active[i] = true
		e.solvers[i] = newRateSolver(p, ix, model.FlowID(i))
		e.rebase(i)
	}
	e.rearm(nil)
	return e, nil
}

// adoptPlan installs plan as Step's schedule, adding the shard states and
// starting the worker pool it needs beyond what earlier plans left.
func (e *Engine) adoptPlan(plan *stagePlan) {
	e.plan = plan
	if len(e.sh) < plan.shards {
		// The admission sort never sees more candidates than the widest
		// node has classes; sizing scratch by that (not the total class
		// count) keeps per-shard scratch bounded on metro-scale problems
		// where classes number ~10^6 but each node carries a few dozen.
		maxNodeClasses := 0
		for b := range e.p.Nodes {
			if n := len(e.ix.ClassesByNode(model.NodeID(b))); n > maxNodeClasses {
				maxNodeClasses = n
			}
		}
		for len(e.sh) < plan.shards {
			e.sh = append(e.sh, shardState{
				scratch:   make([]classBC, 0, maxNodeClasses),
				touchIDs:  make([]int32, 0, len(e.p.Flows)),
				touchSeen: make([]int, len(e.p.Flows)),
			})
		}
	}
	if plan.shards > 1 && e.pool == nil {
		// Sized by the budget, not by this plan: a later plan may be wider,
		// and each shard keeps a goroutine of its own.
		e.pool = newWorkerPool(e.cfg.workers - 1)
		// Backstop for engines dropped without Close: idle workers hold no
		// reference to e (see workerPool), so the finalizer can fire and
		// release them.
		runtime.SetFinalizer(e, (*Engine).Close)
	}
}

// Close releases the engine's worker pool and marks the engine closed;
// Step, Solve and Reset panic deterministically afterwards, with or without
// a pool (a closed pool would die on its closed channel; an engine without
// one would silently keep working).
// Close is idempotent. Abandoned engines are closed by the garbage
// collector as a backstop, but deterministic shutdown should call Close
// explicitly.
func (e *Engine) Close() {
	e.closed = true
	if e.pool != nil {
		runtime.SetFinalizer(e, nil)
		e.pool.close()
	}
}

// Step performs one synchronous LRGP iteration: Algorithm 1 at every flow
// source, then Algorithm 2 and the Equation 12 price update at every node,
// then Algorithm 3 (Equation 13) for every link.
//
// There is one schedule. The stage plan assigns every flow and every live
// node and link (one a flow crosses or that holds a price; the rest sit at
// price 0, a fixed point of both updates) to a shard; each shard runs all
// three stages back to back over its flows and the armed part of its node
// and link lists (stepShard, rearm) and the shards meet at one barrier.
// When the crossing-writes analysis proves the problem
// decomposes into balanced groups of independent components — as many as
// the shard budget (shardsPerProc × GOMAXPROCS at NewEngine) or, failing
// that, half of it, down to GOMAXPROCS — the plan has that many shards,
// fanned out over the worker pool; otherwise it has one, run on the
// caller's goroutine. Either way Step performs exactly the serial
// arithmetic: within a shard the stages run in serial order over ascending
// lists, and every cross-shard reduction (max overload, counter sums,
// changed flags) is order-independent, so results are bit-identical for
// any shard count.
//
// Step is incremental: a flow re-solves its rate problem only when some
// price on its path or some consuming class's population changed last
// iteration; a node re-runs admission only when a crossing flow's rate
// changed this iteration (or a mutator touched its inputs); a link re-sums
// its usage under the same rule. Everything else reuses the previous
// iteration's values verbatim, so results are bit-identical to a full
// recompute (see DESIGN.md §8 for the invariants). The O(1) price updates
// and adaptive-gamma observations run for every armed constraint — they
// move every iteration until the exact fixpoint.
func (e *Engine) Step() StepResult {
	if e.closed {
		panic("core: Engine.Step called after Close")
	}
	e.iteration++
	res := StepResult{Iteration: e.iteration}

	// Stage timing exists only on the telemetry path: the tel == nil
	// branches keep the disabled Step free of clock reads entirely.
	tel := e.cfg.Telemetry
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}

	if e.plan.shards == 1 {
		e.stepShard(0)
	} else {
		e.pool.run(e.shardFn, e.plan.shards)
	}
	if tel != nil {
		res.StageNanos[telemetry.StageRate] = e.stageMark[0].Sub(t0).Nanoseconds()
		res.StageNanos[telemetry.StageAdmission] = e.stageMark[1].Sub(e.stageMark[0]).Nanoseconds()
		res.StageNanos[telemetry.StagePrice] = time.Since(e.stageMark[1]).Nanoseconds()
	}

	var rateChanged, popChanged bool
	armedNodes, armedLinks := 0, 0
	for s := range e.sh[:e.plan.shards] {
		sh := &e.sh[s]
		sh.work = sh.dirtyFlows + len(sh.nodes) - sh.skippedNodes + len(sh.links) - sh.skippedLinks
		armedNodes += len(sh.nodes)
		armedLinks += len(sh.links)
		res.DirtyFlows += sh.dirtyFlows
		rateChanged = rateChanged || sh.rateChanged
		if sh.overNode > res.MaxNodeOverload {
			res.MaxNodeOverload = sh.overNode
		}
		res.SkippedNodes += sh.skippedNodes
		popChanged = popChanged || sh.popChanged
		if sh.overLink > res.MaxLinkOverload {
			res.MaxLinkOverload = sh.overLink
		}
		res.SkippedLinks += sh.skippedLinks
	}
	res.ShardImbalance = e.shardImbalance()

	// The objective only moves when a rate or population moved; otherwise
	// the cached sum is the exact value the full recomputation would
	// produce. The sum runs over the per-flow cache in ascending flow order
	// — the same association Utility uses — so the incremental value is
	// bit-identical to the from-scratch one.
	if rateChanged || popChanged || e.utilStale {
		total := 0.0
		for _, u := range e.flowUtil {
			total += u
		}
		e.util = total
		e.utilStale = false
	}
	res.Utility = e.util

	work := [3]int{res.DirtyFlows, res.SkippedNodes, res.SkippedLinks}
	e.workSteady = work == e.work
	e.work = work
	e.settled = false

	if tel != nil {
		tel.ObserveStep(res.StageNanos, res.Utility,
			res.MaxNodeOverload, res.MaxLinkOverload,
			armedNodes, armedLinks,
			res.DirtyFlows, res.SkippedNodes+res.SkippedLinks)
	}
	return res
}

// shardImbalance is max ÷ mean of the plan shards' last-Step work.
func (e *Engine) shardImbalance() float64 {
	maxWork, sumWork := 0, 0
	for s := range e.sh[:e.plan.shards] {
		maxWork = max(maxWork, e.sh[s].work)
		sumWork += e.sh[s].work
	}
	if sumWork == 0 {
		return 1
	}
	return float64(maxWork*e.plan.shards) / float64(sumWork)
}

// flowDirty reports whether flow i's rate inputs changed during iteration
// prev: a link or node price on its path moved, or a consuming class's
// population moved. Clean flows re-solve to the exact same rate, so the
// engine keeps the cached value instead. Only the armed path view is looked
// at: a parked constraint is not swept, so its price cannot move.
func (e *Engine) flowDirty(i int, prev int) bool {
	v := &e.views[i]
	for _, a := range v.links {
		if e.linkPriceEpoch[a.id] == prev {
			return true
		}
	}
	for _, a := range v.nodes {
		if e.nodePriceEpoch[a.id] == prev {
			return true
		}
	}
	for _, cid := range e.ix.ClassesByFlow(model.FlowID(i)) {
		if e.popEpoch[cid] == prev {
			return true
		}
	}
	return false
}

// rateOne runs Algorithm 1 for flow i (writes only e.rates[i]).
func (e *Engine) rateOne(i int) {
	if !e.active[i] {
		e.rates[i] = 0
		return
	}
	price := e.flowPrice(model.FlowID(i))
	e.rates[i] = e.solvers[i].solve(e.consumers, price)
}

// rateItem runs the incremental rate update for flow i (skip check,
// Algorithm 1, epoch bookkeeping), accumulating into the caller's dirty
// count and changed flag.
func (e *Engine) rateItem(i, prev int, dirty *int, changed *bool) {
	if !(e.flowForced[i] || e.flowDirty(i, prev)) {
		return
	}
	e.flowForced[i] = false
	*dirty++
	old := e.rates[i]
	e.rateOne(i)
	if e.rates[i] != old {
		e.rateEpoch[i] = e.iteration
		e.vc.basis[i] = e.solvers[i].basis(e.rates[i])
		*changed = true
	}
}

// rateList runs the rate stage over a shard's flows.
func (e *Engine) rateList(ids []int32, sh *shardState) {
	prev := e.iteration - 1
	dirty, changed := 0, false
	for _, i := range ids {
		e.rateItem(int(i), prev, &dirty, &changed)
	}
	sh.dirtyFlows = dirty
	sh.rateChanged = changed
}

// admitItem runs the admission half of the node stage for node b:
// Algorithm 2 when a crossing flow's rate changed this iteration (or a
// mutator forced the node), cache reuse otherwise. Population changes mark
// the node's crossing flows in the shard's touch list so the flow-utility
// cache refresh knows what moved.
func (e *Engine) admitItem(b int, sh *shardState, skipped *int, popChanged *bool) {
	bid := model.NodeID(b)
	recompute := e.nodeForced[b]
	if !recompute {
		t := e.iteration
		for _, i := range e.ix.FlowsByNode(bid) {
			if e.rateEpoch[i] == t {
				recompute = true
				break
			}
		}
	}
	if !recompute {
		*skipped++
		return
	}
	e.nodeForced[b] = false
	out := admitNode(e.p, e.ix, bid, e.rates, nil, e.active, e.consumers, sh.scratch,
		&e.rank, &e.vc, e.popEpoch, e.iteration)
	e.nodeUsed[b], e.nodeBest[b] = out.used, out.bestUnsatisfied
	if out.popChanged {
		*popChanged = true
		sh.touchFlows(e.ix.FlowsByNode(bid), e.iteration)
	}
}

// touchFlows adds a node's crossing flows to the shard's touch list —
// a superset of the flows whose populations actually moved, which is safe:
// re-deriving a clean flow's cached utility reproduces the identical
// float. touchSeen dedups per iteration t, bounding the list by the flow
// count so appends never grow the preallocated backing array.
func (sh *shardState) touchFlows(flows []model.FlowID, t int) {
	seen := sh.touchSeen
	ids := sh.touchIDs
	for _, i := range flows {
		if seen[i] != t {
			seen[i] = t
			ids = append(ids, int32(i))
		}
	}
	sh.touchIDs = ids
}

// nodePriceList is the price half of the node stage over a shard's nodes:
// the Equation 12 sweep as a branch-light pass over the flat
// price/used/best/capacity arrays, returning the list's max overload.
// It is split from admission so the sweep reads SoA state the admission
// pass has fully settled — admission never reads prices, so running all
// admissions before all price updates performs the serial arithmetic
// exactly.
func (e *Engine) nodePriceList(ids []int32) float64 {
	over := 0.0
	t := e.iteration
	prices, used, best, caps := e.nodePrices, e.nodeUsed, e.nodeBest, e.nodeCap
	if e.cfg.Adaptive {
		for _, b := range ids {
			u, cp, prev := used[b], caps[b], prices[b]
			g := e.gamma.val[b]
			next := nodePriceUpdate(prev, best[b], u, cp, g)
			e.gamma.observe(int(b), priceGap(prev, best[b], u, cp), prev)
			if next != prev {
				e.nodePriceEpoch[b] = t
			}
			prices[b] = next
			if o := u - cp; o > over {
				over = o
			}
		}
		return over
	}
	g := e.cfg.Gamma
	for _, b := range ids {
		u, cp, prev := used[b], caps[b], prices[b]
		next := nodePriceUpdate(prev, best[b], u, cp, g)
		if next != prev {
			e.nodePriceEpoch[b] = t
		}
		prices[b] = next
		if o := u - cp; o > over {
			over = o
		}
	}
	return over
}

// nodeList runs the node stage over a shard's nodes — all admissions, then
// the price sweep.
func (e *Engine) nodeList(ids []int32, sh *shardState) {
	skipped, popChanged := 0, false
	for _, b := range ids {
		e.admitItem(int(b), sh, &skipped, &popChanged)
	}
	sh.overNode = e.nodePriceList(ids)
	sh.skippedNodes = skipped
	sh.popChanged = popChanged
}

// linkUsageItem is the usage half of the link stage for link l: re-sum
// when a traversing flow's rate changed this iteration (or a mutator
// forced the link), cache reuse otherwise. The sum drops the per-flow
// active check the old inner loop carried: an inactive flow's rate is
// identically zero (rateOne and SetFlowActive both pin it), and since
// every term is non-negative, adding its exact 0.0 cannot perturb the sum.
func (e *Engine) linkUsageItem(l int, skipped *int) {
	lid := model.LinkID(l)
	recompute := e.linkForced[l]
	if !recompute {
		t := e.iteration
		for _, i := range e.ix.FlowsByLink(lid) {
			if e.rateEpoch[i] == t {
				recompute = true
				break
			}
		}
	}
	if !recompute {
		*skipped++
		return
	}
	e.linkForced[l] = false
	used := 0.0
	costs := e.ix.FlowCostsByLink(lid)
	for k, i := range e.ix.FlowsByLink(lid) {
		used += costs[k] * e.rates[i]
	}
	e.linkUsed[l] = used
}

// linkPriceList is the Equation 13 sweep over a shard's links as a
// branch-light pass over the flat price/used/capacity arrays, returning
// the list's max overload.
func (e *Engine) linkPriceList(ids []int32) float64 {
	over := 0.0
	t := e.iteration
	g := e.cfg.LinkGamma
	prices, used, caps := e.linkPrices, e.linkUsed, e.linkCap
	for _, l := range ids {
		u, cp, prev := used[l], caps[l], prices[l]
		next := linkPriceUpdate(prev, u, cp, g)
		if next != prev {
			e.linkPriceEpoch[l] = t
		}
		prices[l] = next
		if o := u - cp; o > over {
			over = o
		}
	}
	return over
}

// linkList runs the link stage over a shard's links — all usage re-sums,
// then the price sweep.
func (e *Engine) linkList(ids []int32, sh *shardState) {
	skipped := 0
	for _, l := range ids {
		e.linkUsageItem(int(l), &skipped)
	}
	sh.overLink = e.linkPriceList(ids)
	sh.skippedLinks = skipped
}

// stepShard runs the whole iteration for shard s of the stage plan. In a
// multi-shard plan the shard's flows, nodes and links are unions of
// connected components, so every value a stage reads was either written by
// this same goroutine earlier in the call (rates before admissions before
// link sums, exactly the serial order) or is untouched this iteration by
// anyone else. The trailing flow-utility refresh — rate-dirty flows plus
// the flows whose populations the admission stage touched — likewise
// touches only this shard's flows. Shard 0 always runs on Step's caller,
// so it is the one that stamps the stage boundaries for telemetry.
func (e *Engine) stepShard(s int) {
	sh := &e.sh[s]
	timed := s == 0 && e.cfg.Telemetry != nil
	flows := e.plan.flows[s]
	e.rateList(flows, sh)
	if timed {
		e.stageMark[0] = time.Now()
	}
	e.nodeList(sh.nodes, sh)
	if timed {
		e.stageMark[1] = time.Now()
	}
	e.linkList(sh.links, sh)

	t := e.iteration
	if e.utilStale {
		for _, i := range flows {
			e.flowUtilItem(int(i))
		}
	} else {
		for _, i := range flows {
			if e.rateEpoch[i] == t {
				e.flowUtilItem(int(i))
			}
		}
		for _, i := range sh.touchIDs {
			if e.flowUtilEpoch[i] != t {
				e.flowUtilItem(int(i))
			}
		}
	}
	sh.touchIDs = sh.touchIDs[:0]
}

// flowUtilItem recomputes flow i's cached objective contribution from the
// current rate and populations, stamping the cache epoch.
func (e *Engine) flowUtilItem(i int) {
	total := 0.0
	if g := e.vc.basis[i]; g == g {
		scale := e.vc.scale
		for _, cid := range e.ix.ClassesByFlow(model.FlowID(i)) {
			if n := e.consumers[cid]; n != 0 {
				total += float64(n) * (scale[cid] * g)
			}
		}
	} else {
		r := e.rates[i]
		classes := e.p.Classes
		for _, cid := range e.ix.ClassesByFlow(model.FlowID(i)) {
			if n := e.consumers[cid]; n != 0 {
				total += float64(n) * classes[cid].Utility.Value(r)
			}
		}
	}
	e.flowUtil[i] = total
	e.flowUtilEpoch[i] = e.iteration
}

// rebase refills flow i's side of the value cache from its solver's
// current binding and the flow's current rate.
func (e *Engine) rebase(i int) {
	rs := e.solvers[i]
	for k, cid := range rs.classes {
		e.vc.scale[cid] = rs.scales[k]
	}
	e.vc.basis[i] = rs.basis(e.rates[i])
}

// flowPrice computes PL_i + PB_i (Equations 8 and 9) for flow i from the
// current prices and populations, using the index's dense per-flow cost
// views and precomputed per-(flow, node) class lists, over the flow's armed
// path view in path order (see pathView for why that sum is exact).
func (e *Engine) flowPrice(i model.FlowID) float64 {
	price := 0.0
	v := &e.views[i]
	lcosts := e.ix.LinkCostsByFlow(i)
	for _, a := range v.links {
		price += lcosts[a.k] * e.linkPrices[a.id]
	}
	ncosts := e.ix.NodeCostsByFlow(i)
	classes := e.ix.ClassesByFlowNode(i)
	for _, a := range v.nodes {
		coeff := ncosts[a.k]
		for _, cid := range classes[a.k] {
			coeff += e.p.Classes[cid].CostPerConsumer * float64(e.consumers[cid])
		}
		price += coeff * e.nodePrices[a.id]
	}
	return price
}

// Utility returns the current objective value (Equation 1), computed from
// scratch. Classes of inactive flows contribute nothing (their populations
// are zero). The sum is grouped by flow — the same association the
// engine's per-flow cache uses — so a from-scratch value always matches
// Step's incremental one bit for bit.
func (e *Engine) Utility() float64 {
	total := 0.0
	for i := range e.p.Flows {
		r := e.rates[i]
		sub := 0.0
		for _, cid := range e.ix.ClassesByFlow(model.FlowID(i)) {
			if n := e.consumers[cid]; n != 0 {
				sub += float64(n) * e.p.Classes[cid].Utility.Value(r)
			}
		}
		total += sub
	}
	return total
}

// SetFlowActive includes or excludes a flow from subsequent iterations,
// modeling a flow source joining or leaving the system (the Figure 3
// experiment removes flow 5 mid-run). Deactivating zeroes the flow's rate
// and its classes' populations immediately.
func (e *Engine) SetFlowActive(i model.FlowID, active bool) {
	if e.active[i] == active {
		return
	}
	e.active[i] = active
	e.settled = false
	if !active {
		e.rates[i] = 0
		for _, cid := range e.ix.ClassesByFlow(i) {
			e.consumers[cid] = 0
			e.nodeForced[e.p.Classes[cid].Node] = true
		}
	} else {
		e.rates[i] = e.p.Flows[i].RateMin
	}
	e.vc.basis[i] = e.solvers[i].basis(e.rates[i])
	// The rate and populations changed outside Step, so the epoch checks
	// cannot see it: force the flow, every node its path crosses (their
	// cached admission reflects the old rate) and every link it traverses
	// (stale usage sums). The objective moved too.
	e.flowForced[i] = true
	for _, b := range e.ix.NodesByFlow(i) {
		e.nodeForced[b] = true
	}
	for _, l := range e.ix.LinksByFlow(i) {
		e.linkForced[l] = true
	}
	e.utilStale = true
}

// SetClassDemand changes a class's n^max mid-run, modeling consumers
// arriving at or leaving the system (the engine "runs all the time,
// responding to changes in workload", Section 2.1). The next iteration's
// greedy allocation picks the change up; prices adapt over the following
// iterations. A demand model.Validate would refuse — negative, or positive
// for a class whose flow does not reach its node — is refused with
// model.ErrInvalid and changes nothing.
//
// Like every Engine method, SetClassDemand is safe only between Step
// calls: Step's worker goroutines read the class table and populations
// without synchronization, so a mutation concurrent with Step is a data
// race regardless of the worker count.
func (e *Engine) SetClassDemand(j model.ClassID, maxConsumers int) error {
	if j < 0 || int(j) >= len(e.p.Classes) {
		return fmt.Errorf("core: unknown class %d", j)
	}
	c := &e.p.Classes[j]
	if maxConsumers < 0 {
		return fmt.Errorf("core: %w: class %d demand %d < 0", model.ErrInvalid, j, maxConsumers)
	}
	if _, reaches := e.p.Nodes[c.Node].FlowCost[c.Flow]; !reaches && maxConsumers > 0 {
		return fmt.Errorf("core: %w: class %d demand %d at node %d, which flow %d does not reach",
			model.ErrInvalid, j, maxConsumers, c.Node, c.Flow)
	}
	c.MaxConsumers = maxConsumers
	e.settled = false
	if e.consumers[j] > maxConsumers {
		e.consumers[j] = maxConsumers
		// The truncated population is an out-of-Step change: the class's
		// flow must re-solve its rate and the objective moved.
		e.flowForced[c.Flow] = true
		e.utilStale = true
	}
	// Whether or not the population was truncated, the node's greedy
	// admission may now admit a different mix.
	e.nodeForced[c.Node] = true
	return nil
}

// SetNodeCapacity changes a node's capacity mid-run, modeling hardware
// degradation or scale-out. A capacity model.Validate would refuse — not
// > 0, NaN included — is refused with model.ErrInvalid and changes nothing.
// Safe only between Step calls, never concurrently with Step (see
// SetClassDemand).
func (e *Engine) SetNodeCapacity(b model.NodeID, capacity float64) error {
	if b < 0 || int(b) >= len(e.p.Nodes) {
		return fmt.Errorf("core: unknown node %d", b)
	}
	if !(capacity > 0) {
		return fmt.Errorf("core: %w: node %d capacity %g", model.ErrInvalid, b, capacity)
	}
	e.p.Nodes[b].Capacity = capacity
	e.settled = false
	// A node the plan does not list is not swept: the re-arm that first arms
	// it reads its capacity.
	for s := range e.sh[:e.plan.shards] {
		if _, listed := slices.BinarySearch(e.plan.nodes[s], int32(b)); !listed {
			continue
		}
		// The admission budget changed; the cached used/bestUnsatisfied are
		// stale. (The price sweep reads the capacity mirror each iteration.)
		e.nodeCap[b] = capacity
		e.nodeForced[b] = true
		sh := &e.sh[s]
		if k, armed := slices.BinarySearch(sh.nodes, int32(b)); !armed &&
			!slack(e.ix.FlowsByNode(b), e.ix.FlowCostsByNode(b), e.p.Flows, capacity) {
			// The node can bind now: rearm parked it, so it wakes — with no
			// epoch of its own yet, and on the views of the flows crossing it.
			sh.nodes = slices.Insert(sh.nodes, k, int32(b))
			e.nodePriceEpoch[b] = 0
			e.nodeArmed.set(int32(b))
			for _, i := range e.ix.FlowsByNode(b) {
				e.buildView(int(i))
			}
		}
		break
	}
	return nil
}

// Reset re-targets the engine at a perturbed problem, warm-starting from
// the current fixpoint: rates (clamped into p's bounds), populations
// (clamped to p's demands), prices and adaptive-gamma state all carry
// over, while the dense index views, worker pool, solvers and scratch are
// reused without reallocating. p must be topology-compatible with the
// original problem — same flows, nodes, links and classes, with the same
// class attachments and the same cost-map sparsity; only cost values,
// capacities, rate bounds, demands and utility functions may differ (see
// model.Index.Refresh). On error the engine still runs the old problem.
//
// After Reset the iteration counter restarts at zero and the first Step
// recomputes everything; subsequent iterations are incremental again. A
// sweep that Resets through nearby problems converges in far fewer
// iterations than cold-starting an engine per point — see the
// lrgp-experiments "sweep" experiment and BenchmarkSweepWarmStart.
func (e *Engine) Reset(p *model.Problem) error {
	if e.closed {
		panic("core: Engine.Reset called after Close")
	}
	if err := model.Validate(p); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := e.ix.Refresh(p); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.warmRestart(p, nil)
	return nil
}

// ResetRouting is Reset for problems whose routing moved: the member sets
// (flows, nodes, links, classes and class attachments) must be unchanged,
// but dirty elements named by d may have gained or lost (resource, flow)
// cost entries — the shape Refresh rejects. Only what d names may differ
// from the problem the engine last saw: the index is re-targeted
// incrementally and the rules of model.Validate are re-applied to the dirty
// elements alone (model.Index.RefreshRouting; errors wrap model.ErrInvalid),
// so the call costs the delta plus the live part of the problem — the
// re-plan tests what the old plan lists and what d names, the re-arm what
// was armed, what d names and what d's flows cross — never the size of the
// overlay. Unlike Reset, the stage plan is rebuilt: routing
// defines which flows share resources and which constraints carry a flow at
// all, so the analysis fixed at NewEngine no longer holds. Warm state
// carries over exactly as in Reset. On error the engine still runs the old
// problem with its index, plan and warm state untouched.
func (e *Engine) ResetRouting(p *model.Problem, d model.RoutingDelta) error {
	if e.closed {
		panic("core: Engine.ResetRouting called after Close")
	}
	if err := e.ix.RefreshRouting(p, d); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.adoptPlan(newStagePlan(e.ix, e.nodePrices, e.linkPrices, e.cfg.workers, e.plan, d))
	// A dirty constraint that no flow crosses any more and that holds no
	// price has left the plan: nothing will refresh what it cached, so it
	// goes back to the state of a constraint no flow ever crossed.
	for _, b := range d.Nodes {
		if len(e.ix.FlowsByNode(b)) == 0 && e.nodePrices[b] == 0 {
			e.nodeUsed[b], e.nodeBest[b], e.nodeForced[b] = 0, 0, false
		}
	}
	for _, l := range d.Links {
		if len(e.ix.FlowsByLink(l)) == 0 && e.linkPrices[l] == 0 {
			e.linkUsed[l], e.linkForced[l] = 0, false
		}
	}
	if e.cfg.Adaptive {
		// Re-routing changes the load composition on every node a dirty
		// flow now crosses, not just the nodes whose membership changed:
		// a node that keeps flow i but sees i's detoured traffic at a new
		// rate is tuned for gone conditions too, and a stepsize adapted
		// deep into an equilibrium dead band can sustain a limit cycle
		// the fresh heuristic would damp. Restart the controllers on the
		// damage footprint (reseed is idempotent; untouched nodes keep
		// their tuning, preserving warm-start locality).
		for _, b := range d.Nodes {
			e.gamma.reseed(int(b))
		}
		for _, i := range d.Flows {
			for _, b := range e.ix.NodesByFlow(i) {
				e.gamma.reseed(int(b))
			}
		}
	}
	e.warmRestart(p, &d)
	return nil
}

// warmRestart is the shared tail of Reset and ResetRouting: re-targets
// solvers at p, clamps the carried-over rates and populations into p's
// bounds, and restarts the incremental machinery so the first Step
// recomputes everything. d is ResetRouting's delta, nil for Reset (see
// rearm).
func (e *Engine) warmRestart(p *model.Problem, d *model.RoutingDelta) {
	e.p = p
	for i := range p.Flows {
		e.solvers[i].bind(p)
		if e.active[i] {
			e.rates[i] = clamp(e.rates[i], p.Flows[i].RateMin, p.Flows[i].RateMax)
		}
		e.rebase(i)
	}
	for j := range p.Classes {
		if e.consumers[j] > p.Classes[j].MaxConsumers {
			e.consumers[j] = p.Classes[j].MaxConsumers
		}
	}

	e.rearm(d)
}

// rearm restarts the incremental machinery so that the next Step recomputes
// everything it sweeps: every cached value is suspect under a new problem.
// The per-flow and per-class epochs and the touch dedup are cleared, not
// left behind — the restarted iteration counter will revisit their old
// values, and a stale match would wrongly skip a recompute.
//
// Of the constraints the plan lists, Step sweeps the armed ones: rearm parks
// a link at price 0 that no rates in the box can fill (slack), and a node at
// price 0 that is slack too, carries no class — so no benefit-cost ratio and
// no population — and, under Adaptive, has its γ at the ceiling, where
// observing a zero gap leaves it. Sweeping a parked constraint would compute
// [0 + γ·(used − c)]⁺ with used ≤ c, or 0 + γ·(0 − 0): price 0 again, no
// epoch, no overload (DESIGN.md §5). A constraint that is slack but still
// priced stays armed until its price has decayed to exactly 0 and a later
// rearm parks it.
//
// With d nil (NewEngine, Reset, which may change capacities and RateMax
// anywhere) the rule is tested on every listed constraint. With
// ResetRouting's delta it is tested on what was armed, what d names and
// what d's flows cross: only those may differ from the problem the last
// re-arm saw, so nothing else can change status. A constraint is written
// only when it is armed — its epoch cleared, its capacity mirror read, its
// force set; a parked one's are not read until a re-arm or a wake arms it
// again. The path views of the flows crossing a constraint whose status
// changed, and of d's flows, are rebuilt; the others are still exact.
func (e *Engine) rearm(d *model.RoutingDelta) {
	e.iteration = 0
	e.util, e.utilStale = 0, true
	e.settled = false
	for i := range e.flowForced {
		e.flowForced[i] = true
		e.rateEpoch[i] = 0
		e.flowUtilEpoch[i] = 0
	}
	if d == nil {
		e.candNodes.fill()
		e.candLinks.fill()
	} else {
		copy(e.candNodes, e.nodeArmed)
		copy(e.candLinks, e.linkArmed)
		for _, b := range d.Nodes {
			e.candNodes.set(int32(b))
		}
		for _, l := range d.Links {
			e.candLinks.set(int32(l))
		}
		for _, i := range d.Flows {
			e.flowMark.set(int32(i))
			for _, b := range e.ix.NodesByFlow(i) {
				e.candNodes.set(int32(b))
			}
			for _, l := range e.ix.LinksByFlow(i) {
				e.candLinks.set(int32(l))
			}
		}
	}
	e.rearmTested = 0
	flows := e.p.Flows
	for s := 0; s < e.plan.shards; s++ {
		sh := &e.sh[s]
		sh.nodes = slices.Grow(sh.nodes[:0], len(e.plan.nodes[s]))
		for _, b := range e.plan.nodes[s] {
			if !e.candNodes.take(b) {
				if e.nodeArmed.has(b) {
					sh.nodes = append(sh.nodes, b)
				}
				continue
			}
			e.rearmTested++
			bid := model.NodeID(b)
			capacity := e.p.Nodes[b].Capacity
			armed := e.nodePrices[b] != 0 || len(e.ix.ClassesByNode(bid)) != 0 ||
				(e.cfg.Adaptive && e.gamma.val[b] != e.gamma.max) ||
				!slack(e.ix.FlowsByNode(bid), e.ix.FlowCostsByNode(bid), flows, capacity)
			if armed {
				e.nodePriceEpoch[b], e.nodeCap[b], e.nodeForced[b] = 0, capacity, true
				sh.nodes = append(sh.nodes, b)
			}
			if armed != e.nodeArmed.has(b) {
				e.nodeArmed.flip(b)
				e.markFlows(e.ix.FlowsByNode(bid))
			}
		}
		sh.links = slices.Grow(sh.links[:0], len(e.plan.links[s]))
		for _, l := range e.plan.links[s] {
			if !e.candLinks.take(l) {
				if e.linkArmed.has(l) {
					sh.links = append(sh.links, l)
				}
				continue
			}
			e.rearmTested++
			lid := model.LinkID(l)
			capacity := e.p.Links[l].Capacity
			armed := e.linkPrices[l] != 0 ||
				!slack(e.ix.FlowsByLink(lid), e.ix.FlowCostsByLink(lid), flows, capacity)
			if armed {
				e.linkPriceEpoch[l], e.linkCap[l], e.linkForced[l] = 0, capacity, true
				sh.links = append(sh.links, l)
			}
			if armed != e.linkArmed.has(l) {
				e.linkArmed.flip(l)
				e.markFlows(e.ix.FlowsByLink(lid))
			}
		}
	}
	// A marked constraint the plan does not list has no flow and no price:
	// it is parked like one no flow ever crossed, and the flows that left it
	// are d's.
	e.nodeArmed.andNot(e.candNodes)
	e.linkArmed.andNot(e.candLinks)
	clear(e.candNodes)
	clear(e.candLinks)
	for w, word := range e.flowMark {
		for ; word != 0; word &= word - 1 {
			e.buildView(w<<6 + bits.TrailingZeros64(word))
		}
		e.flowMark[w] = 0
	}
	for j := range e.popEpoch {
		e.popEpoch[j] = 0
	}
	for s := range e.sh {
		sh := &e.sh[s]
		for i := range sh.touchSeen {
			sh.touchSeen[i] = 0
		}
		sh.touchIDs = sh.touchIDs[:0]
	}
}

// markFlows marks flows for rearm's view rebuild.
func (e *Engine) markFlows(flows []model.FlowID) {
	for _, i := range flows {
		e.flowMark.set(int32(i))
	}
}

// pathView is a flow's armed path view: the armed links and nodes on its
// path, each as its id and its position in the index's per-flow lists
// (LinksByFlow and LinkCostsByFlow; NodesByFlow, NodeCostsByFlow and
// ClassesByFlowNode), in path order. flowPrice and flowDirty walk it instead
// of the whole path. That is exact: a parked constraint sits at price
// exactly 0 with a finite cost — slack refuses an infinite one, and
// model.Validate requires costs > 0 — and no class attached, so its term in
// Eq. 8/9 is +0, which leaves the non-negative sum as it is; and it is not
// swept, so its price never moves.
type pathView struct {
	links, nodes []armedAt
}

// armedAt is one entry of a pathView.
type armedAt struct {
	id, k int32
}

// buildView rebuilds flow i's path view from its index path and the armed
// marks, reusing the view's storage.
func (e *Engine) buildView(i int) {
	fid := model.FlowID(i)
	v := &e.views[i]
	v.links = v.links[:0]
	for k, l := range e.ix.LinksByFlow(fid) {
		if e.linkArmed.has(int32(l)) {
			v.links = append(v.links, armedAt{int32(l), int32(k)})
		}
	}
	v.nodes = v.nodes[:0]
	for k, b := range e.ix.NodesByFlow(fid) {
		if e.nodeArmed.has(int32(b)) {
			v.nodes = append(v.nodes, armedAt{int32(b), int32(k)})
		}
	}
}

// bitset is one bit per id.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(id int32) bool { return s[id>>6]&(1<<(id&63)) != 0 }
func (s bitset) set(id int32)      { s[id>>6] |= 1 << (id & 63) }
func (s bitset) flip(id int32)     { s[id>>6] ^= 1 << (id & 63) }

// take clears id's bit and reports whether it was set.
func (s bitset) take(id int32) bool {
	w, m := &s[id>>6], uint64(1)<<(id&63)
	had := *w&m != 0
	*w &^= m
	return had
}

// andNot clears in s every bit set in t.
func (s bitset) andNot(t bitset) {
	for w := range s {
		s[w] &^= t[w]
	}
}

func (s bitset) fill() {
	for w := range s {
		s[w] = ^uint64(0)
	}
}

// slack reports whether no rates in the box can fill a constraint of the
// given capacity: the bound Σ_k cost_k·RateMax_{i_k} fits. It is summed in
// the order and over the views linkUsageItem and admitNode sum the usage, and
// every rate is 0 or inside its flow's [RateMin, RateMax], so by monotonicity
// of IEEE multiply and add the usage Step would compute never exceeds the
// bound computed here. A NaN anywhere says false, and so — more than
// exactness needs — does an infinite capacity or RateMax.
func slack(crossing []model.FlowID, costs []float64, flows []model.Flow, capacity float64) bool {
	bound := 0.0
	for k, i := range crossing {
		bound += costs[k] * flows[i].RateMax
	}
	return bound <= capacity && capacity < math.Inf(1)
}

// Problem returns the engine's problem.
func (e *Engine) Problem() *model.Problem { return e.p }

// Index returns the engine's precomputed lookup index.
func (e *Engine) Index() *model.Index { return e.ix }

// Allocation returns a copy of the current rates and populations.
func (e *Engine) Allocation() model.Allocation {
	a := model.Allocation{
		Rates:     make([]float64, len(e.rates)),
		Consumers: make([]int, len(e.consumers)),
	}
	copy(a.Rates, e.rates)
	copy(a.Consumers, e.consumers)
	return a
}

// NodePrices returns a copy of the node price vector.
func (e *Engine) NodePrices() []float64 {
	out := make([]float64, len(e.nodePrices))
	copy(out, e.nodePrices)
	return out
}

// LinkPrices returns a copy of the link price vector.
func (e *Engine) LinkPrices() []float64 {
	out := make([]float64, len(e.linkPrices))
	copy(out, e.linkPrices)
	return out
}

// Gammas returns a copy of the per-node adaptive stepsizes (meaningful only
// with Config.Adaptive).
func (e *Engine) Gammas() []float64 {
	out := make([]float64, len(e.gamma.val))
	copy(out, e.gamma.val)
	return out
}

// Result summarizes a Solve run.
type Result struct {
	// Utility is the objective value at the final iteration (the standing
	// value when no iteration ran).
	Utility float64
	// Iterations is the number of iterations this Solve executed; 0 when
	// Stop is StopSettled.
	Iterations int
	// Converged reports whether the 0.1% amplitude rule was met, i.e. Stop
	// is not StopBudget.
	Converged bool
	// ConvergedAt is the iteration of this Solve at which the rule was met
	// — the last one, since the solve stops there; 0 when no iteration
	// was needed, -1 when the rule was not met.
	ConvergedAt int
	// Stop says why the Solve returned.
	Stop telemetry.StopReason
	// Allocation is the final allocation.
	Allocation model.Allocation
	// Trace is the utility after each iteration of this Solve.
	Trace []float64
}

// Solve iterates until the paper's convergence rule — utility oscillation
// amplitude below 0.1% over the trailing metrics.DefaultWindow iterations
// — or maxIter iterations, whichever comes first, and stops at the first
// iteration that meets it.
//
// The window belongs to the engine, not to the call: the utility series
// continues across Solve calls, the mutators and Reset*, as the paper's
// always-running optimizer's does. From its DefaultWindow-th iteration on
// a Solve is judged on its own iterations alone (StopWindow), which is the
// only way the first Solve of a fresh engine can stop. Earlier than that a
// warm re-solve may stop on a window that reaches back into the solves
// before it, but only at a Step whose work counters (DirtyFlows,
// SkippedNodes, SkippedLinks) equal the previous Step's (StopDrained): the
// perturbation has stopped spreading and what is still dirty is what the
// steady state keeps dirty. A perturbation that moves utility by more than
// the band breaks the carried window and runs until the window is its own.
//
// A Solve on an engine whose last Solve converged and which nothing has
// touched since (no Step, mutator or Reset*) runs no iteration and
// returns the standing allocation (StopSettled).
func (e *Engine) Solve(maxIter int) Result {
	res, _ := e.solve(maxIter, nil)
	return res
}

// SolveTraced is Solve writing one telemetry.IterationRecord per iteration
// to tw, numbered from 1. For the first solve of an engine the recorded
// utility series replayed through a fresh detector reproduces ConvergedAt;
// a warm re-solve may stop on a window that began before it (see Solve),
// and a settled one writes no record. The caller owns tw and must Flush
// it; a nil tw is plain Solve.
func (e *Engine) SolveTraced(maxIter int, tw *telemetry.TraceWriter) (Result, error) {
	if tw == nil {
		return e.Solve(maxIter), nil
	}
	prev := make([]int, len(e.consumers))
	return e.solve(maxIter, func(t int, r StepResult, converged bool) error {
		alloc := e.Allocation()
		delta := 0
		for j, n := range alloc.Consumers {
			if d := n - prev[j]; d >= 0 {
				delta += d
			} else {
				delta -= d
			}
			prev[j] = n
		}
		rec := telemetry.IterationRecord{
			Iteration:       t + 1,
			Utility:         r.Utility,
			MaxNodeOverload: r.MaxNodeOverload,
			MaxLinkOverload: r.MaxLinkOverload,
			StageNanos:      r.StageNanos,
			Rates:           alloc.Rates,
			Consumers:       alloc.Consumers,
			NodePrices:      e.NodePrices(),
			LinkPrices:      e.LinkPrices(),
			AdmissionDelta:  delta,
			Converged:       converged,
		}
		if err := tw.Write(&rec); err != nil {
			return fmt.Errorf("writing trace record %d: %w", rec.Iteration, err)
		}
		return nil
	})
}

// solve is the one solve loop: it owns the stopping rule (see Solve), and
// hands each iteration (0-based t, whether the rule has been met by its
// end) to each, when non-nil. An error from each ends the solve.
func (e *Engine) solve(maxIter int, each func(t int, r StepResult, converged bool) error) (Result, error) {
	if maxIter <= 0 {
		maxIter = 250
	}
	tel := e.cfg.Telemetry
	if e.settled {
		tel.ObserveConvergence(true, 0)
		tel.ObserveSolveStop(telemetry.StopSettled)
		return Result{
			Utility:    e.util,
			Converged:  true,
			Stop:       telemetry.StopSettled,
			Allocation: e.Allocation(),
		}, nil
	}
	e.det.Rearm()
	stop, at := telemetry.StopBudget, -1
	trace := make([]float64, 0, maxIter)
	for t := 0; t < maxIter; t++ {
		r := e.Step()
		trace = append(trace, r.Utility)
		if e.det.Observe(r.Utility) {
			switch {
			case t+1 >= metrics.DefaultWindow:
				stop = telemetry.StopWindow
			case e.workSteady:
				stop = telemetry.StopDrained
			default:
				// The carried window is flat but the dirty set is still
				// changing size: look again next iteration.
				e.det.Rearm()
			}
		}
		done := stop != telemetry.StopBudget
		if each != nil {
			if err := each(t, r, done); err != nil {
				return Result{}, err
			}
		}
		if done {
			at = t + 1
			break
		}
	}
	converged := stop != telemetry.StopBudget
	e.settled = converged
	tel.ObserveConvergence(converged, at)
	tel.ObserveSolveStop(stop)
	return Result{
		Utility:     trace[len(trace)-1],
		Iterations:  len(trace),
		Converged:   converged,
		ConvergedAt: at,
		Stop:        stop,
		Allocation:  e.Allocation(),
		Trace:       trace,
	}, nil
}
