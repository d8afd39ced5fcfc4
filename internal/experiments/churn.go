package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/trace"
	"repro/internal/utility"
)

// ChurnExperiment (X11) measures re-optimization under rolling topology
// failures, the regime the ROADMAP names as the open frontier: a
// capacity-heterogeneous random overlay runs at its optimum, then every
// FailEvery iterations a link (or node) dies or heals. Each event is
// handled incrementally — Router.RepairLink/RepairNode re-routes only the
// flows indexed to the failed element, Engine.ResetRouting republishes
// the repaired coefficients without rebuilding anything — and the warm
// re-convergence is compared against a cold rebuild (NewRouter +
// NewEngine + Solve) of the same mutated topology. Reported per event:
// the repair cost, the utility dip after one post-repair iteration, and
// iterations/wall-clock to re-convergence warm vs cold.

// ChurnConfig sizes the X11 rolling-failure experiment.
type ChurnConfig struct {
	// TopoNodes is the overlay size (default 10_000).
	TopoNodes int
	// Flows is the flow population (default TopoNodes/100).
	Flows int
	// SubsPerFlow is the subscriber classes per flow (default 3).
	SubsPerFlow int
	// ExtraDegree is the per-node extra-link count of the random topology
	// (default 2; the spanning tree guarantees connectivity).
	ExtraDegree int
	// Events is how many churn events to run (default 8). Odd events
	// restore what the preceding event failed, so the experiment
	// alternates fail/heal.
	Events int
	// FailEvery is the iteration budget between events — the warm path
	// must re-converge within it (default 400).
	FailEvery int
	// FailKind selects what dies: "link" (default) or "node".
	FailKind string
	// ColdBudget bounds each cold-rebuild solve (default 4000).
	ColdBudget int
}

func (c ChurnConfig) normalized() ChurnConfig {
	if c.TopoNodes <= 0 {
		c.TopoNodes = 10_000
	}
	if c.Flows <= 0 {
		c.Flows = c.TopoNodes / 100
		if c.Flows < 4 {
			c.Flows = 4
		}
	}
	if c.SubsPerFlow <= 0 {
		c.SubsPerFlow = 3
	}
	if c.ExtraDegree <= 0 {
		c.ExtraDegree = 2
	}
	if c.Events <= 0 {
		c.Events = 8
	}
	if c.FailEvery <= 0 {
		c.FailEvery = 400
	}
	if c.FailKind == "" {
		c.FailKind = "link"
	}
	if c.FailKind != "link" && c.FailKind != "node" {
		c.FailKind = "link"
	}
	if c.ColdBudget <= 0 {
		c.ColdBudget = 4000
	}
	return c
}

// churnBand is the relative utility-amplitude band that counts as
// re-converged, matching the Figure 3 recovery experiment: random
// contended instances keep a small admission limit cycle above the
// paper's 0.1% rule, so X11 measures re-entry into the 0.5% band with
// the same detector for the base, warm and cold solves.
const churnBand = 0.005

// solveBand steps eng until the utility amplitude stays within churnBand
// over the detector window, or budget runs out. Returns the final
// utility, iterations used and whether the band was reached.
func solveBand(eng *core.Engine, budget int) (float64, int, bool) {
	det := metrics.NewConvergenceDetector(0, churnBand)
	u := 0.0
	for it := 1; it <= budget; it++ {
		u = eng.Step().Utility
		if det.Observe(u) {
			return u, it, true
		}
	}
	return u, budget, false
}

// ChurnEvent is one failure or restore and its re-convergence record.
type ChurnEvent struct {
	// Kind is the repair-stats kind: link-fail, link-restore, node-fail,
	// node-restore. Element is the link index or node ID.
	Kind    string
	Element int
	// Affected and Rerouted are the repair's locality stats.
	Affected int
	Rerouted int
	// RepairMicros is RepairX + ResetRouting wall time.
	RepairMicros float64
	// UtilityBefore is the converged utility before the event; DipPct the
	// relative drop after one post-repair iteration (negative = gain, as
	// restores typically are).
	UtilityBefore float64
	DipPct        float64
	// WarmIters/WarmMicros: iterations and wall time to re-convergence on
	// the warm engine (repair included in the time). WarmConverged is
	// false when the FailEvery budget ran out first.
	WarmIters     int
	WarmMicros    float64
	WarmConverged bool
	// ColdIters/ColdMicros: a from-scratch rebuild and solve of the same
	// mutated topology.
	ColdIters     int
	ColdMicros    float64
	ColdConverged bool
}

// ChurnResult is the X11 outcome.
type ChurnResult struct {
	Config ChurnConfig
	Events []ChurnEvent
	// BaseUtility is the pre-churn converged utility; BaseIters the
	// iterations the initial cold solve took.
	BaseUtility float64
	BaseIters   int
	// WarmMicrosTotal / ColdMicrosTotal sum the per-event costs; Speedup
	// is their ratio.
	WarmMicrosTotal float64
	ColdMicrosTotal float64
	Speedup         float64
}

// churnWorkload builds the heterogeneous overlay and flow population.
func churnWorkload(rng *rand.Rand, cc ChurnConfig) (*overlay.Topology, []float64, []overlay.FlowSpec) {
	tp := overlay.RandomTopologyHetero(rng, cc.TopoNodes, cc.ExtraDegree, 1e5, 1e6)
	caps := make([]float64, cc.TopoNodes)
	for b := range caps {
		caps[b] = 2000 + rng.Float64()*2000
	}
	flows := make([]overlay.FlowSpec, cc.Flows)
	for fi := range flows {
		fs := overlay.FlowSpec{
			Name:     fmt.Sprintf("f%d", fi),
			Source:   model.NodeID(rng.Intn(cc.TopoNodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < cc.SubsPerFlow; s++ {
			fs.Classes = append(fs.Classes, overlay.ClassSpec{
				Name:            fmt.Sprintf("f%d-c%d", fi, s),
				Node:            model.NodeID(rng.Intn(cc.TopoNodes)),
				MaxConsumers:    10 + rng.Intn(50),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

// ChurnExperiment runs X11. See ChurnConfig for sizing; Options supplies
// the seed and engine worker count.
func ChurnExperiment(opts Options, cc ChurnConfig) (*ChurnResult, error) {
	o := opts.normalized()
	cc = cc.normalized()
	rng := rand.New(rand.NewSource(o.Seed))
	cfg := core.Config{Adaptive: true}

	tp, caps, flows := churnWorkload(rng, cc)
	r, err := overlay.NewRouter(tp, caps, flows)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	eng, err := core.NewEngine(r.Problem(), cfg)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	defer eng.Close()
	baseU, baseIters, baseOK := solveBand(eng, cc.ColdBudget)
	if !baseOK {
		return nil, fmt.Errorf("churn: base solve did not enter the %.1f%% band in %d iterations", 100*churnBand, cc.ColdBudget)
	}
	out := &ChurnResult{Config: cc, BaseUtility: baseU, BaseIters: baseIters}

	// Anchored nodes (sources, subscribers) cannot fail.
	anchored := make([]bool, cc.TopoNodes)
	for _, fs := range flows {
		anchored[fs.Source] = true
		for _, cs := range fs.Classes {
			anchored[cs.Node] = true
		}
	}

	lastUtility := baseU
	failedElem := -1
	for ev := 0; ev < cc.Events; ev++ {
		healing := failedElem >= 0

		repairStart := time.Now()
		st, elem, err := churnEvent(r, rng, cc.FailKind, healing, failedElem, anchored)
		if err != nil {
			return nil, fmt.Errorf("churn: event %d: %w", ev, err)
		}
		if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
			return nil, fmt.Errorf("churn: event %d: %w", ev, err)
		}
		repairDur := time.Since(repairStart)
		if healing {
			failedElem = -1
		} else {
			failedElem = elem
		}

		// Warm re-convergence, dip sampled after the first iteration.
		det := metrics.NewConvergenceDetector(0, churnBand)
		dipU := eng.Step().Utility
		det.Observe(dipU)
		iters := 1
		for iters < cc.FailEvery && !det.Converged() {
			det.Observe(eng.Step().Utility)
			iters++
		}
		warmDur := time.Since(repairStart)

		e := ChurnEvent{
			Kind:          st.Kind,
			Element:       st.Element,
			Affected:      st.Affected,
			Rerouted:      st.Rerouted,
			RepairMicros:  float64(repairDur.Microseconds()),
			UtilityBefore: lastUtility,
			DipPct:        100 * (lastUtility - dipU) / lastUtility,
			WarmIters:     iters,
			WarmMicros:    float64(warmDur.Microseconds()),
			WarmConverged: det.Converged(),
		}

		// Cold baseline: rebuild and solve the mutated topology from
		// scratch.
		coldStart := time.Now()
		rc, err := overlay.NewRouter(tp, caps, flows)
		if err != nil {
			return nil, fmt.Errorf("churn: event %d cold rebuild: %w", ev, err)
		}
		ec, err := core.NewEngine(rc.Problem(), cfg)
		if err != nil {
			return nil, fmt.Errorf("churn: event %d cold rebuild: %w", ev, err)
		}
		_, coldIters, coldOK := solveBand(ec, cc.ColdBudget)
		ec.Close()
		e.ColdIters = coldIters
		e.ColdMicros = float64(time.Since(coldStart).Microseconds())
		e.ColdConverged = coldOK

		lastUtility = eng.Step().Utility // settle one more; negligible
		out.Events = append(out.Events, e)
		out.WarmMicrosTotal += e.WarmMicros
		out.ColdMicrosTotal += e.ColdMicros
	}
	if out.WarmMicrosTotal > 0 {
		out.Speedup = out.ColdMicrosTotal / out.WarmMicrosTotal
	}
	return out, nil
}

// churnEvent performs one fail or heal on the router and reports the
// repair stats plus the failed element (for the paired restore).
func churnEvent(r *overlay.Router, rng *rand.Rand, kind string, healing bool, failedElem int, anchored []bool) (overlay.RepairStats, int, error) {
	tp := r.Topology()
	if healing {
		if kind == "node" {
			st, err := r.RestoreNode(model.NodeID(failedElem))
			return st, failedElem, err
		}
		st, err := r.RestoreLink(failedElem)
		return st, failedElem, err
	}
	// Pick a loaded element whose failure is survivable, trying candidates
	// in shuffled order — a repair that fails with ErrNoPath (the element
	// was a bridge for some flow) rolls back cleanly, so keep trying.
	if kind == "node" {
		var cand []int
		for b := 0; b < tp.NodeCount(); b++ {
			if !anchored[b] && tp.NodeAlive(model.NodeID(b)) && len(r.FlowsThroughNode(model.NodeID(b))) > 0 {
				cand = append(cand, b)
			}
		}
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		for _, b := range cand {
			if st, err := r.RepairNode(model.NodeID(b)); err == nil {
				return st, b, nil
			}
		}
		return overlay.RepairStats{}, 0, fmt.Errorf("no survivable node failure among %d loaded nodes", len(cand))
	}
	var cand []int
	for li := 0; li < tp.LinkCount(); li++ {
		if tp.LinkAlive(li) && len(r.FlowsThroughLink(li)) > 0 {
			cand = append(cand, li)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	for _, li := range cand {
		if st, err := r.RepairLink(li); err == nil {
			return st, li, nil
		}
	}
	return overlay.RepairStats{}, 0, fmt.Errorf("no survivable link failure among %d loaded links", len(cand))
}

// RenderChurn renders the X11 event table.
func RenderChurn(res *ChurnResult) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("X11: rolling %s failures (%d nodes, %d flows, repair + warm re-solve vs cold rebuild)",
			res.Config.FailKind, res.Config.TopoNodes, res.Config.Flows),
		"Event", "Element", "Affected", "Repair µs", "Dip %", "Warm iters", "Warm ms", "Cold iters", "Cold ms", "Speedup")
	iterStr := func(n int, converged bool, budget int) string {
		if !converged {
			return fmt.Sprintf(">%d", budget)
		}
		return fmt.Sprint(n)
	}
	for _, e := range res.Events {
		t.Add(
			e.Kind,
			fmt.Sprint(e.Element),
			fmt.Sprintf("%d/%d", e.Affected, res.Config.Flows),
			fmt.Sprintf("%.0f", e.RepairMicros),
			fmt.Sprintf("%+.2f", e.DipPct),
			iterStr(e.WarmIters, e.WarmConverged, res.Config.FailEvery),
			fmt.Sprintf("%.1f", e.WarmMicros/1000),
			iterStr(e.ColdIters, e.ColdConverged, res.Config.ColdBudget),
			fmt.Sprintf("%.1f", e.ColdMicros/1000),
			fmt.Sprintf("%.1fx", e.ColdMicros/e.WarmMicros),
		)
	}
	t.Add("total", "", "", "", "",
		"", fmt.Sprintf("%.1f", res.WarmMicrosTotal/1000),
		"", fmt.Sprintf("%.1f", res.ColdMicrosTotal/1000),
		fmt.Sprintf("%.1fx", res.Speedup))
	return t
}
