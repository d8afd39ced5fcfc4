package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/overlay"
)

// link_failure: the overlay router and the model index refresh carry the
// weight and the autopilot does none. A single goroutine (closed loop)
// fails a loaded link, repairs the routing, re-solves warm and enacts,
// then heals the link the same way, over a seeded list of links.

const (
	// resolveBand is the utility-amplitude band that counts as
	// re-converged after a routing change, the band internal/experiments
	// uses for X11: random contended instances keep a small admission
	// limit cycle above the paper's 0.1%.
	resolveBand = 0.005
	// resolveBudget bounds the iterations of one warm re-solve; a
	// recovery that needs more has missed the band and counts as failed.
	resolveBudget = 400
)

type linkSys struct {
	r   *overlay.Router
	eng *core.Engine
	b   *broker.Broker
	// order is the seeded list of links to fail; next indexes it.
	order []int
	next  int
	// orig holds every flow's tree as first routed.
	orig    []overlay.Tree
	eventID int64
}

func setupLink(seed int64, st setupTimes) (system, error) {
	rng := rand.New(rand.NewSource(seed))
	tp, caps, flows := linkInputs(rng)
	s := &linkSys{}
	if err := st.timed("overlay.new_router_ms", func() (err error) {
		s.r, err = overlay.NewRouter(tp, caps, flows)
		return err
	}); err != nil {
		return nil, err
	}
	p := s.r.Problem()
	if _, err := st.validateIndex(p); err != nil {
		return nil, err
	}
	if err := st.timed("core.new_engine_ms", func() (err error) {
		s.eng, err = core.NewEngine(p, engineConfig)
		return err
	}); err != nil {
		return nil, err
	}
	if _, ok := s.resolve(coldBudget); !ok {
		s.close()
		return nil, fmt.Errorf("base solve did not enter the %.1f%% band in %d iterations", 100*resolveBand, coldBudget)
	}
	var err error
	if s.b, err = broker.New(p); err != nil {
		s.close()
		return nil, err
	}
	for j, c := range p.Classes {
		for k := 0; k < c.MaxConsumers; k++ {
			if _, err := s.b.AttachConsumer(model.ClassID(j), nil, noopHandler); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	if err := s.b.ApplyAllocation(s.eng.Allocation()); err != nil {
		s.close()
		return nil, err
	}
	s.order = failureOrder(rng, s.r)
	s.orig = make([]overlay.Tree, len(p.Flows))
	for i := range s.orig {
		t := s.r.Tree(model.FlowID(i))
		s.orig[i] = overlay.Tree{Source: t.Source, Links: slices.Clone(t.Links), Nodes: slices.Clone(t.Nodes)}
	}
	return s, nil
}

func (s *linkSys) close() { s.eng.Close() }

// resolve steps the engine until the utility stays within resolveBand
// over the detector's window, or budget runs out.
func (s *linkSys) resolve(budget int) (iters int, ok bool) {
	det := metrics.NewConvergenceDetector(0, resolveBand)
	for it := 1; it <= budget; it++ {
		if det.Observe(s.eng.Step().Utility) {
			return it, true
		}
	}
	return budget, false
}

// eventObs is what one fail or heal event measured besides its spans.
type eventObs struct {
	ms        float64
	stats     overlay.RepairStats
	iters     int
	converged bool
}

// event fails or heals link li and carries the change through to an
// enacted allocation: repair or restore, republish the routing to the
// engine, re-solve warm, enact.
func (s *linkSys) event(tr *tracer, li int, heal bool) (eventObs, error) {
	var o eventObs
	s.eventID++
	id := s.eventID
	root, change, repair := "event.fail", "overlay.repair", s.r.RepairLink
	if heal {
		root, change, repair = "event.heal", "overlay.restore", s.r.RestoreLink
	}
	t0 := time.Now()
	rs := tr.begin(root, id, -1)

	sp := tr.begin(change, id, rs)
	st, err := repair(li)
	tr.end(sp)
	if err != nil {
		tr.end(rs)
		return o, err
	}
	o.stats = st

	sp = tr.begin("core.reset_routing", id, rs)
	err = s.eng.ResetRouting(s.r.Problem(), s.r.TakeDelta())
	tr.end(sp)
	if err != nil {
		return o, err
	}

	sp = tr.begin("core.resolve", id, rs)
	o.iters, o.converged = s.resolve(resolveBudget)
	tr.end(sp)

	sp = tr.begin("broker.enact", id, rs)
	err = s.b.ApplyAllocation(s.eng.Allocation())
	tr.end(sp)
	tr.end(rs)
	o.ms = float64(time.Since(t0)) / 1e6
	return o, err
}

func (s *linkSys) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	pm := startProc()
	var (
		failMs, healMs, affected, rerouted, iters series
		sumAffected, sumRerouted                  float64
	)
	for start := time.Now(); time.Since(start) < d; {
		li := s.order[s.next%len(s.order)]
		s.next++
		pairStart := time.Now()
		fail, err := s.event(tr, li, false)
		if errors.Is(err, overlay.ErrNoPath) {
			// The link was some flow's only way through; the repair rolled
			// back and the link is not a survivable failure. The generator
			// moves on: this is no operation of the workload.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("fail link %d: %w", li, err)
		}
		if through := s.r.FlowsThroughLink(li); len(through) != 0 {
			return nil, fmt.Errorf("fail link %d: %d trees still cross the dead link", li, len(through))
		}
		heal, err := s.event(tr, li, true)
		if err != nil {
			return nil, fmt.Errorf("heal link %d: %w", li, err)
		}
		ph.rates = append(ph.rates, 2/time.Since(pairStart).Seconds())
		ph.attempted += 2
		for _, o := range []eventObs{fail, heal} {
			if !o.converged {
				ph.failed++
			}
			sumAffected += float64(o.stats.Affected)
			sumRerouted += float64(o.stats.Rerouted)
			iters = append(iters, float64(o.iters))
		}
		failMs = append(failMs, fail.ms)
		healMs = append(healMs, heal.ms)
		affected = append(affected, float64(fail.stats.Affected))
		rerouted = append(rerouted, float64(fail.stats.Rerouted))
	}
	ph.proc = pm.stop()
	ph.latency = failMs
	ph.timing("recovery_ms_p50", failMs, 0.5)
	ph.timing("recovery_ms_p90", failMs, 0.9)
	ph.timing("restore_ms_p50", healMs, 0.5)
	ph.timing("overlay.affected_flows_p50", affected, 0.5)
	ph.timing("overlay.rerouted_flows_p50", rerouted, 0.5)
	ph.timing("core.resolve_iters_p50", iters, 0.5)
	if sumAffected > 0 {
		ph.m["overlay.reroute_ratio"] = sumRerouted / sumAffected
	}
	if tr != nil {
		ph.timing("overlay.repair_us_p50", tr.durations("overlay.repair", 1e3), 0.5)
		ph.timing("overlay.restore_us_p50", tr.durations("overlay.restore", 1e3), 0.5)
		ph.timing("core.reset_routing_us_p50", tr.durations("core.reset_routing", 1e3), 0.5)
		ph.timing("core.resolve_ms_p50", tr.durations("core.resolve", 1e6), 0.5)
		ph.timing("broker.enact_us_p50", tr.durations("broker.enact", 1e3), 0.5)
	}
	return ph, nil
}

// verify checks that the last heal left every tree as first routed and
// that what the broker enforces is feasible for the routed problem.
func (s *linkSys) verify() (float64, error) {
	p := s.r.Problem()
	for i, want := range s.orig {
		got := s.r.Tree(model.FlowID(i))
		if got.Source != want.Source || !slices.Equal(got.Links, want.Links) || !slices.Equal(got.Nodes, want.Nodes) {
			return 0, fmt.Errorf("flow %d: tree after the last heal differs from the tree first routed", i)
		}
	}
	enacted, err := enactedAllocation(s.b, p)
	if err != nil {
		return 0, err
	}
	if err := model.CheckFeasible(p, s.eng.Index(), enacted, feasTol); err != nil {
		return 0, err
	}
	cold, err := coldUtility(p)
	if err != nil {
		return 0, err
	}
	return model.TotalUtility(p, enacted) / cold, nil
}
