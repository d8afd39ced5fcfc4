package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
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

	// Per-constraint state lives in one table per kind (constraintTable,
	// DESIGN.md §5). Beside the node table, and indexed by its slots, is
	// the state links do not have: nodeBest caches admitNode's best
	// unsatisfied benefit-cost ratio, and gamma is the adaptive stepsize
	// bank.
	nodes, links constraintTable
	nodeBest     []float64
	gamma        *gammaBank

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
	// tel is the engine's metrics, nil without Config.Telemetry.
	// stageMark holds shard 0's clock readings after its rate and node
	// lists, written only when tel is set.
	tel       *engineMetrics
	stageMark [2]time.Time
	// closed is set by Close; stepping a closed engine panics
	// deterministically instead of racing the pool shutdown.
	closed bool

	// Incremental dirty-set state (DESIGN.md §8), the flow side; the
	// tables keep the constraint side. The epoch slices record the
	// iteration at which each quantity last changed value; a stage consults
	// them to decide whether its cached outputs are still exact.
	// flowForced is set by mutators and Reset to dirty a flow whose inputs
	// changed outside Step, and cleared by the recompute it triggers.
	flowForced []bool
	// rateEpoch[i]: iteration e.rates[i] last changed; popEpoch[j]:
	// iteration e.consumers[j] last changed.
	rateEpoch []int
	popEpoch  []int
	// views[i] is flow i's armed path view: the armed nodes and links on
	// its path, in path order (see pathView). flowMark is rearm's scratch
	// mark of the flows whose views it rebuilds, clear between calls;
	// rearmTested is the number of constraints the last re-arm tested.
	views       []pathView
	flowMark    bitset
	rearmTested int
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
// shard writes is indexed by its flows and by the node and link slots
// stamped with it, which the tables' lists[shard] hold. The accumulators are reduced by the caller after the
// barrier: max (overloads), integer sum (counters) and boolean OR (changed
// flags) are all order-independent, so the result is bit-identical to the
// serial scan.
type shardState struct {
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
	// link-price stages (indexed by StageRate/StageAdmission/StagePrice)
	// as the caller's goroutine ran them; the price slot also holds the
	// wait for the other shards. Populated only when
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
		p:         p,
		ix:        ix,
		cfg:       c,
		rates:     make([]float64, len(p.Flows)),
		consumers: make([]int, len(p.Classes)),
		active:    make([]bool, len(p.Flows)),
		nodes:     newTable(len(p.Nodes), false),
		links:     newTable(len(p.Links), true),
		solvers:   make([]*rateSolver, len(p.Flows)),

		flowForced:    make([]bool, len(p.Flows)),
		rateEpoch:     make([]int, len(p.Flows)),
		popEpoch:      make([]int, len(p.Classes)),
		det:           metrics.NewConvergenceDetector(0, 0),
		flowUtil:      make([]float64, len(p.Flows)),
		flowUtilEpoch: make([]int, len(p.Flows)),
		views:         make([]pathView, len(p.Flows)),
		flowMark:      newBitset(len(p.Flows)),
		vc: valueCache{
			basis: make([]float64, len(p.Flows)),
			scale: make([]float64, len(p.Classes)),
		},
		rank: ranking{order: make([]model.ClassID, len(p.Classes))},
	}
	for j := range e.rank.order {
		e.rank.order[j] = model.ClassID(j)
	}
	if c.Telemetry != nil {
		e.tel = newEngineMetrics(c.Telemetry)
	}
	e.shardFn = e.stepShard
	e.gamma = newGammaBank(c.GammaLiteral, 0)
	// Nothing holds a price yet: the plan lists what a flow crosses, its
	// slots numbered shard by shard.
	e.replan(nil)
	for _, t := range e.tables() {
		t.group()
	}
	for i := range p.Flows {
		e.rates[i] = p.Flows[i].RateMin
		e.active[i] = true
		e.solvers[i] = newRateSolver(p, ix, model.FlowID(i))
		e.rebase(i)
	}
	e.rearm(nil)
	return e, nil
}

// adoptPlan installs plan as Step's schedule, adding the shard states, the
// tables' armed lists and the worker pool it needs beyond earlier plans'.
func (e *Engine) adoptPlan(plan *stagePlan) {
	e.plan = plan
	if k := plan.shards - len(e.sh); k > 0 {
		for _, t := range e.tables() {
			t.lists = append(t.lists, make([][]int32, k)...)
		}
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
// arithmetic: within a shard the stages run in serial order, no item of a
// stage reads another's output (so the order of a list is immaterial), and
// every cross-shard reduction (max overload, counter sums, changed flags)
// is order-independent, so results are bit-identical for any shard count.
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
	tel := e.tel
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
		res.StageNanos[StageRate] = e.stageMark[0].Sub(t0).Nanoseconds()
		res.StageNanos[StageAdmission] = e.stageMark[1].Sub(e.stageMark[0]).Nanoseconds()
		res.StageNanos[StagePrice] = time.Since(e.stageMark[1]).Nanoseconds()
	}

	var rateChanged, popChanged bool
	armedNodes, armedLinks := 0, 0
	for s := range e.sh[:e.plan.shards] {
		sh := &e.sh[s]
		nodes, links := len(e.nodes.lists[s]), len(e.links.lists[s])
		sh.work = sh.dirtyFlows + nodes - sh.skippedNodes + links - sh.skippedLinks
		armedNodes += nodes
		armedLinks += links
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
		tel.observeStep(&res, armedNodes, armedLinks)
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
		if e.links.epochs[a.slot] == prev {
			return true
		}
	}
	for _, a := range v.nodes {
		if e.nodes.epochs[a.slot] == prev {
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

// admitItem runs the admission half of the node stage for the node in slot
// s: Algorithm 2 when a crossing flow's rate changed this iteration (or a
// mutator forced the node), cache reuse otherwise. Population changes mark
// the node's crossing flows in the shard's touch list so the flow-utility
// cache refresh knows what moved.
func (e *Engine) admitItem(s int32, sh *shardState, skipped *int, popChanged *bool) {
	bid := model.NodeID(e.nodes.ids[s])
	flows := e.ix.FlowsByNode(bid)
	if !e.nodes.due(s, flows, e.rateEpoch, e.iteration) {
		*skipped++
		return
	}
	out := admitNode(e.p, e.ix, bid, e.rates, nil, e.active, e.consumers, sh.scratch,
		&e.rank, &e.vc, e.popEpoch, e.iteration)
	e.nodes.used[s], e.nodeBest[s] = out.used, out.bestUnsatisfied
	if out.popChanged {
		*popChanged = true
		sh.touchFlows(flows, e.iteration)
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

// nodePriceList is the price half of the node stage over a shard's node slots:
// the Equation 12 sweep as a branch-light pass over the flat
// price/used/best/capacity arrays, returning the list's max overload.
// It is split from admission so the sweep reads SoA state the admission
// pass has fully settled — admission never reads prices, so running all
// admissions before all price updates performs the serial arithmetic
// exactly.
func (e *Engine) nodePriceList(ids []int32) float64 {
	over := 0.0
	t := e.iteration
	prices, used, best, caps := e.nodes.prices, e.nodes.used, e.nodeBest, e.nodes.caps
	if e.cfg.Adaptive {
		for _, s := range ids {
			u, cp, prev := used[s], caps[s], prices[s]
			g := e.gamma.val[s]
			next := nodePriceUpdate(prev, best[s], u, cp, g)
			e.gamma.observe(int(s), priceGap(prev, best[s], u, cp), prev)
			if next != prev {
				e.nodes.epochs[s] = t
			}
			prices[s] = next
			if o := u - cp; o > over {
				over = o
			}
		}
		return over
	}
	g := e.cfg.Gamma
	for _, s := range ids {
		u, cp, prev := used[s], caps[s], prices[s]
		next := nodePriceUpdate(prev, best[s], u, cp, g)
		if next != prev {
			e.nodes.epochs[s] = t
		}
		prices[s] = next
		if o := u - cp; o > over {
			over = o
		}
	}
	return over
}

// nodeList runs the node stage over a shard's node slots — all admissions,
// then the price sweep.
func (e *Engine) nodeList(ids []int32, sh *shardState) {
	skipped, popChanged := 0, false
	for _, s := range ids {
		e.admitItem(s, sh, &skipped, &popChanged)
	}
	sh.overNode = e.nodePriceList(ids)
	sh.skippedNodes = skipped
	sh.popChanged = popChanged
}

// linkUsageItem is the usage half of the link stage for the link in slot s:
// re-sum when a traversing flow's rate changed this iteration (or a mutator
// forced the link), cache reuse otherwise. The sum drops the per-flow
// active check the old inner loop carried: an inactive flow's rate is
// identically zero (rateOne and SetFlowActive both pin it), and since
// every term is non-negative, adding its exact 0.0 cannot perturb the sum.
func (e *Engine) linkUsageItem(s int32, skipped *int) {
	lid := model.LinkID(e.links.ids[s])
	flows := e.ix.FlowsByLink(lid)
	if !e.links.due(s, flows, e.rateEpoch, e.iteration) {
		*skipped++
		return
	}
	used := 0.0
	costs := e.ix.FlowCostsByLink(lid)
	for k, i := range flows {
		used += costs[k] * e.rates[i]
	}
	e.links.used[s] = used
}

// linkPriceList is the Equation 13 sweep over a shard's link slots as a
// branch-light pass over the flat price/used/capacity arrays, returning
// the list's max overload.
func (e *Engine) linkPriceList(ids []int32) float64 {
	over := 0.0
	t := e.iteration
	g := e.cfg.LinkGamma
	prices, used, caps := e.links.prices, e.links.used, e.links.caps
	for _, s := range ids {
		u, cp, prev := used[s], caps[s], prices[s]
		next := linkPriceUpdate(prev, u, cp, g)
		if next != prev {
			e.links.epochs[s] = t
		}
		prices[s] = next
		if o := u - cp; o > over {
			over = o
		}
	}
	return over
}

// linkList runs the link stage over a shard's link slots — all usage
// re-sums, then the price sweep.
func (e *Engine) linkList(ids []int32, sh *shardState) {
	skipped := 0
	for _, s := range ids {
		e.linkUsageItem(s, &skipped)
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
	timed := s == 0 && e.tel != nil
	flows := e.plan.flows[s]
	e.rateList(flows, sh)
	if timed {
		e.stageMark[0] = time.Now()
	}
	e.nodeList(e.nodes.lists[s], sh)
	if timed {
		e.stageMark[1] = time.Now()
	}
	e.linkList(e.links.lists[s], sh)

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
		price += lcosts[a.k] * e.links.prices[a.slot]
	}
	ncosts := e.ix.NodeCostsByFlow(i)
	classes := e.ix.ClassesByFlowNode(i)
	for _, a := range v.nodes {
		coeff := ncosts[a.k]
		for _, cid := range classes[a.k] {
			coeff += e.p.Classes[cid].CostPerConsumer * float64(e.consumers[cid])
		}
		price += coeff * e.nodes.prices[a.slot]
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
			e.nodes.force(int32(e.p.Classes[cid].Node))
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
		e.nodes.force(int32(b))
	}
	for _, l := range e.ix.LinksByFlow(i) {
		e.links.force(int32(l))
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
	if _, reaches := e.p.Nodes[c.Node].FlowCost.Get(c.Flow); !reaches && maxConsumers > 0 {
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
	e.nodes.force(int32(c.Node))
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
	slot := e.nodes.at(int32(b))
	if slot < 0 {
		return nil
	}
	// The admission budget changed; the cached used/bestUnsatisfied are
	// stale. (The price sweep reads the capacity mirror each iteration.)
	e.nodes.caps[slot] = capacity
	e.nodes.forced[slot] = true
	if !e.nodes.armed.has(slot) {
		// rearm parked the node, so the rule holds it at price 0, with no
		// class and γ at the ceiling: the new capacity alone decides whether
		// it wakes, and re-testing it does what rearm would.
		e.rearmSlot(&e.nodes, slot)
		e.flowMark.drain(e.buildView)
	}
	return nil
}

// Reset re-targets the engine at a perturbed problem, warm-starting from
// the current fixpoint: rates (clamped into p's bounds), populations
// (clamped to p's demands), prices and adaptive-gamma state all carry
// over, while the dense index views, worker pool, solvers and scratch are
// reused without reallocating. p must be topology-compatible with the
// original problem — same flows, nodes, links and classes, with the same
// class attachments and records listing the same flows; only cost values,
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
	e.replan(&d)
	if e.cfg.Adaptive {
		// Re-routing changes the load composition on every node a dirty
		// flow now crosses, not just the nodes whose membership changed:
		// a node that keeps flow i but sees i's detoured traffic at a new
		// rate is tuned for gone conditions too, and a stepsize adapted
		// deep into an equilibrium dead band can sustain a limit cycle
		// the fresh heuristic would damp. Restart the controllers on the
		// damage footprint (reseed is idempotent; untouched nodes keep
		// their tuning, preserving warm-start locality). A node without a
		// slot holds the initial state already.
		for _, b := range d.Nodes {
			e.reseedNode(b)
		}
		for _, i := range d.Flows {
			for _, b := range e.ix.NodesByFlow(i) {
				e.reseedNode(b)
			}
		}
	}
	e.warmRestart(p, &d)
	return nil
}

// reseedNode returns node b's stepsize controller to its initial state, if
// b holds a slot.
func (e *Engine) reseedNode(b model.NodeID) {
	if s := e.nodes.at(int32(b)); s >= 0 {
		e.gamma.reseed(int(s))
	}
}

// warmRestart is the shared tail of Reset and ResetRouting: re-targets
// flows at p (retarget) and restarts the incremental machinery so the
// first Step recomputes everything. d is ResetRouting's delta, nil for
// Reset (see rearm). Under a delta only d's flows are re-targeted: the
// contract of ResetRouting is that nothing else differs from the problem
// the engine last saw, so every other flow's solver, clamped rate,
// populations and value-cache basis are already p's.
func (e *Engine) warmRestart(p *model.Problem, d *model.RoutingDelta) {
	e.p = p
	if d == nil {
		for i := range p.Flows {
			e.retarget(i)
		}
	} else {
		for _, i := range d.Flows {
			e.retarget(int(i))
		}
	}
	e.rearm(d)
}

// retarget re-binds flow i's solver to e.p, clamps its carried-over rate
// (when active) and its classes' populations into e.p's bounds, and
// recomputes its value-cache basis.
func (e *Engine) retarget(i int) {
	p, rs := e.p, e.solvers[i]
	rs.bind(p)
	if e.active[i] {
		e.rates[i] = clamp(e.rates[i], p.Flows[i].RateMin, p.Flows[i].RateMax)
	}
	e.rebase(i)
	for _, j := range rs.classes {
		e.consumers[j] = min(e.consumers[j], p.Classes[j].MaxConsumers)
	}
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
// The rule is tested on the candidates, ascending: with d nil (NewEngine,
// Reset, which may change capacities and RateMax anywhere) every listed
// constraint; with ResetRouting's delta what was armed, what d names and
// what d's flows cross — only those may differ from the problem the last
// re-arm saw, so nothing else can change status, and what was not armed
// stays parked. A constraint is written only when it is armed (file); a
// parked one's epoch, capacity mirror and force are not read
// until a re-arm or a wake arms it again. The path views of the flows
// crossing a constraint whose status changed, and of d's flows, are
// rebuilt; the others are still exact.
func (e *Engine) rearm(d *model.RoutingDelta) {
	e.iteration = 0
	e.util, e.utilStale = 0, true
	e.settled = false
	for i := range e.flowForced {
		e.flowForced[i] = true
		e.rateEpoch[i] = 0
		e.flowUtilEpoch[i] = 0
	}
	for _, t := range e.tables() {
		for k := range t.lists {
			t.lists[k] = t.lists[k][:0]
		}
		if d == nil {
			for s, id := range t.ids {
				if id >= 0 {
					t.cand.set(int32(s))
				}
			}
		} else {
			// Every armed slot is marked, so one that is not stays parked.
			copy(t.cand, t.armed)
		}
	}
	if d != nil {
		mark(&e.nodes, d.Nodes)
		mark(&e.links, d.Links)
		for _, i := range d.Flows {
			e.flowMark.set(int32(i))
			mark(&e.nodes, e.ix.NodesByFlow(i))
			mark(&e.links, e.ix.LinksByFlow(i))
		}
	}
	e.rearmTested = 0
	for _, t := range e.tables() {
		e.rearmTested += t.cand.drain(func(s int32) { e.rearmSlot(t, s) })
	}
	e.flowMark.drain(e.buildView)
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

// rearmSlot tests the parking rule on slot s of t — armed when priced,
// when some rates in the box can fill it, and for a node when it carries a
// class or its γ is off the ceiling — files it if it is armed, and marks
// the flows crossing it for a view rebuild if its status changed.
func (e *Engine) rearmSlot(t *constraintTable, s int32) {
	id := t.ids[s]
	crossing := t.flows(e.ix, id)
	capacity := t.capacity(e.p, id)
	armed := t.prices[s] != 0 ||
		(t == &e.nodes && (len(e.ix.ClassesByNode(model.NodeID(id))) != 0 || (e.cfg.Adaptive && e.gamma.val[s] != e.gamma.max))) ||
		!slack(crossing, t.costs(e.ix, id), e.p.Flows, capacity)
	if armed {
		t.file(s, capacity)
	}
	if armed != t.armed.has(s) {
		t.armed.flip(s)
		for _, i := range crossing {
			e.flowMark.set(int32(i))
		}
	}
}

// pathView is a flow's armed path view: the armed links and nodes on its
// path, each as its slot and its position in the index's per-flow lists
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
	slot, k int32
}

// buildView rebuilds flow i's path view from its index path and the armed
// marks, reusing the view's storage.
func (e *Engine) buildView(i int32) {
	fid := model.FlowID(i)
	v := &e.views[i]
	v.links = armedOn(v.links[:0], &e.links, e.ix.LinksByFlow(fid))
	v.nodes = armedOn(v.nodes[:0], &e.nodes, e.ix.NodesByFlow(fid))
}

// armedOn appends to v the armed constraints of t on path, each with its
// position on the path.
func armedOn[ID ~int](v []armedAt, t *constraintTable, path []ID) []armedAt {
	for k, id := range path {
		if s := t.at(int32(id)); t.armed.has(s) {
			v = append(v, armedAt{s, int32(k)})
		}
	}
	return v
}

// bitset is one bit per id.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// grow returns s with room for n bits, the new ones clear.
func (s bitset) grow(n int) bitset {
	if k := (n+63)/64 - len(s); k > 0 {
		s = append(s, make(bitset, k)...)
	}
	return s
}

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

// drain calls fn with each id whose bit is set, ascending, clears s and
// returns how many ids it called fn with.
func (s bitset) drain(fn func(id int32)) (n int) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			fn(int32(w<<6 + bits.TrailingZeros64(word)))
			n++
		}
		s[w] = 0
	}
	return n
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
func (e *Engine) NodePrices() []float64 { return e.nodes.priceVector() }

// LinkPrices returns a copy of the link price vector.
func (e *Engine) LinkPrices() []float64 { return e.links.priceVector() }

// Gammas returns a copy of the per-node adaptive stepsizes (meaningful only
// with Config.Adaptive).
func (e *Engine) Gammas() []float64 {
	out := make([]float64, len(e.p.Nodes))
	for b := range out {
		out[b] = e.gamma.init
	}
	return expand(out, &e.nodes.slots, e.gamma.val)
}

// expand writes the slot values vals into out, indexed by id, and returns
// out: what a constraint without a slot holds — price 0, the initial γ — is
// the caller's to fill in.
func expand(out []float64, m *slots, vals []float64) []float64 {
	for s, id := range m.ids {
		if id >= 0 {
			out[id] = vals[s]
		}
	}
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
	Stop StopReason
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
	if e.settled {
		e.tel.observeSolve(StopSettled, 0)
		return Result{
			Utility:    e.util,
			Converged:  true,
			Stop:       StopSettled,
			Allocation: e.Allocation(),
		}, nil
	}
	e.det.Rearm()
	stop, at := StopBudget, -1
	trace := make([]float64, 0, maxIter)
	for t := 0; t < maxIter; t++ {
		r := e.Step()
		trace = append(trace, r.Utility)
		if e.det.Observe(r.Utility) {
			switch {
			case t+1 >= metrics.DefaultWindow:
				stop = StopWindow
			case e.workSteady:
				stop = StopDrained
			default:
				// The carried window is flat but the dirty set is still
				// changing size: look again next iteration.
				e.det.Rearm()
			}
		}
		done := stop != StopBudget
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
	converged := stop != StopBudget
	e.settled = converged
	e.tel.observeSolve(stop, at)
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
