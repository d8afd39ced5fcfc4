package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/broker"
	"repro/internal/model"
	"repro/internal/workload"
)

// demand_churn: the optimizer does most of the work and the broker is used
// the other way round, through its control plane. One controller goroutine
// cycles broker.Autopilot back to back (closed loop: it waits for its own
// cycle), applying a seeded batch of attach/detach ops before each cycle;
// one open-loop producer publishes on a few cold-pod flows on a schedule.

const (
	churnOpsPerCycle = 200
	churnFlows       = 5
	// The producer sends churnPerBatch messages on each of its flows every
	// churnBatch: 2,000 msg/s offered against a RateMax of 1,000. The
	// autopilot caps a flow's RateMax below its ceiling once 1.25 x the
	// offered rate it measured over one cycle falls under it, and a cycle
	// is a dozen batches long, so an offered rate at the ceiling itself
	// trips that cap on scheduler jitter (6 of 217 cycles in a probe).
	// At twice the ceiling only a stall of half a cycle does, so what a
	// cycle costs depends on the seed and not on timing; the half the
	// limiter turns away is throttled_share, not failure.
	churnBatch    = time.Millisecond
	churnPerBatch = 2
)

type churnSys struct {
	*metroBroker
	ap  *broker.Autopilot
	cy  *cycler
	gen *churnGen
	// cold lists the flows the producer publishes on.
	cold []model.FlowID
	// byCycler says which controller ran the last cycle and so owns the
	// final problem.
	byCycler bool
	cycleID  int64
}

func setupChurn(seed int64, st setupTimes) (system, error) {
	mb, err := newMetroBroker(workload.MetroSmall(), st, func(model.FlowID) broker.Handler { return noopHandler })
	if err != nil {
		return nil, err
	}
	s := &churnSys{metroBroker: mb}
	if err := st.timed("core.new_engine_ms", func() (err error) {
		s.ap, err = broker.NewAutopilot(mb.b, broker.AutopilotConfig{Core: engineConfig})
		return err
	}); err != nil {
		return nil, err
	}
	alloc, enacted, err := s.ap.Cycle()
	if err != nil {
		s.ap.Close()
		return nil, err
	}
	if !enacted {
		s.ap.Close()
		return nil, errors.New("first autopilot cycle enacted nothing")
	}
	// The traced phase's controller: one more engine construction, a few
	// ms of a set-up of half a second, paid by traced and untraced runs
	// alike so that setup_s means the same in both.
	if s.cy, err = newCycler(mb.b, time.Now); err != nil {
		s.ap.Close()
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	var unconstrained []model.FlowID
	for i, f := range mb.p.Flows {
		if alloc.Rates[i] >= f.RateMax {
			unconstrained = append(unconstrained, model.FlowID(i))
		}
	}
	if len(unconstrained) < churnFlows {
		s.close()
		return nil, fmt.Errorf("only %d flows are allocated their RateMax, want %d", len(unconstrained), churnFlows)
	}
	s.cold = pickFlows(rng, unconstrained, churnFlows)
	attached := make([]int, len(mb.ids))
	for j := range attached {
		attached[j] = len(mb.ids[j])
	}
	s.gen = newChurnGen(rng, attached)
	return s, nil
}

func (s *churnSys) close() {
	s.ap.Close()
	s.cy.close()
}

// apply performs one churn op against the broker.
func (s *churnSys) apply(op churnOp) error {
	ids := s.ids[op.Class]
	if !op.Detach {
		id, err := s.b.AttachConsumer(model.ClassID(op.Class), nil, noopHandler)
		if err != nil {
			return err
		}
		s.ids[op.Class] = append(ids, id)
		return nil
	}
	if err := s.b.DetachConsumer(ids[op.Slot]); err != nil {
		return err
	}
	ids[op.Slot] = ids[len(ids)-1]
	s.ids[op.Class] = ids[:len(ids)-1]
	return nil
}

// publisherObs is what the open-loop producer saw in one phase.
type publisherObs struct {
	calls, throttled, errs int64
	service, late, genLate series // µs
}

// publish is the open-loop producer: every churnBatch it sends
// churnPerBatch messages on each cold flow, whether or not the previous
// batch went out on time, and times each send from when its batch was due.
func (s *churnSys) publish(start time.Time, stop <-chan struct{}) *publisherObs {
	o := &publisherObs{}
	attrs := map[string]float64{"price": 80} // read-only once published
	for k := 0; ; k++ {
		select {
		case <-stop:
			return o
		default:
		}
		due := start.Add(time.Duration(k) * churnBatch)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		last := time.Now()
		o.genLate = append(o.genLate, float64(last.Sub(due))/1e3)
		for _, f := range s.cold {
			for m := 0; m < churnPerBatch; m++ {
				err := s.b.Publish(f, attrs, "tick")
				now := time.Now()
				o.calls++
				switch {
				case err == nil:
					o.service = append(o.service, float64(now.Sub(last))/1e3)
					o.late = append(o.late, float64(now.Sub(due))/1e3)
				case errors.Is(err, broker.ErrThrottled):
					o.throttled++
				default:
					o.errs++
				}
				last = now
			}
		}
	}
}

func (s *churnSys) measure(d time.Duration, tr *tracer) (*phase, error) {
	if tr != nil && !s.byCycler {
		// The cycler takes over from the autopilot with a stale view of
		// what is enacted; let it catch up unrecorded.
		if _, _, _, err := s.cy.cycle(nil, 0); err != nil {
			return nil, err
		}
	}
	s.byCycler = tr != nil

	pm := startProc()
	start := time.Now()
	stop := make(chan struct{})
	pubDone := make(chan *publisherObs, 1)
	go func() { pubDone <- s.publish(start, stop) }()

	var (
		ops, cycles, opErrs, enacts   int64
		opUs, cycleMs, iters          series
		solveAllocs, enactAllocs      uint64
		ph                            = newPhase()
		cycleErr                      error
		loopStart, cycleStart, opLast time.Time
	)
	for loopStart = time.Now(); loopStart.Sub(start) < d; {
		opLast = loopStart
		for k := 0; k < churnOpsPerCycle; k++ {
			if err := s.apply(s.gen.next()); err != nil {
				opErrs++
			}
			now := time.Now()
			opUs = append(opUs, float64(now.Sub(opLast))/1e3)
			opLast = now
			ops++
		}
		cycleStart = opLast
		s.cycleID++
		if tr == nil {
			_, _, cycleErr = s.ap.Cycle()
		} else {
			var (
				obs     cycleObs
				enacted bool
			)
			_, enacted, obs, cycleErr = s.cy.cycle(tr, s.cycleID)
			iters = append(iters, float64(obs.iters))
			solveAllocs += obs.solveAllocs
			if enacted {
				enacts++
				enactAllocs += obs.enactAllocs
			}
		}
		cycles++
		if cycleErr != nil {
			break
		}
		now := time.Now()
		cycleMs = append(cycleMs, float64(now.Sub(cycleStart))/1e6)
		ph.rates = append(ph.rates, 1/now.Sub(loopStart).Seconds())
		loopStart = now
	}
	close(stop)
	pub := <-pubDone
	ph.proc = pm.stop()
	if cycleErr != nil {
		return nil, fmt.Errorf("cycle %d: %w", s.cycleID, cycleErr)
	}

	ph.attempted = ops + cycles + pub.calls
	ph.failed = opErrs + pub.errs
	ph.latency = cycleMs
	ph.timing("cycle_ms_p50", cycleMs, 0.5)
	ph.timing("cycle_ms_p95", cycleMs, 0.95)
	ph.timing("publish_us_p50", pub.service, 0.5)
	ph.timing("publish_us_p99", pub.service, 0.99)
	ph.timing("broker.publish_late_us_p99", pub.late, 0.99)
	ph.timing("broker.gen_late_us_p99", pub.genLate, 0.99)
	ph.timing("broker.churn_op_us_p50", opUs, 0.5)
	if pub.calls > 0 {
		ph.m["broker.throttled_share"] = float64(pub.throttled) / float64(pub.calls)
	}
	if tr != nil {
		estimate := tr.durations("broker.estimate", 1e3)
		solve := tr.durations("core.solve", 1e6)
		enact := tr.durations("broker.enact", 1e3)
		ph.timing("broker.estimate_us_p50", estimate, 0.5)
		ph.timing("core.perturb_us_p50", tr.durations("core.perturb", 1e3), 0.5)
		ph.timing("core.solve_ms_p50", solve, 0.5)
		ph.timing("core.solve_iters_p50", iters, 0.5)
		ph.timing("broker.enact_us_p50", enact, 0.5)
		step := make(series, len(solve))
		for k, ms := range solve {
			step[k] = ms * 1e3 / iters[k]
		}
		ph.timing("core.step_us_p50", step, 0.5)
		if total := cycleMs.sum(); total > 0 {
			ph.m["core.solve_share"] = solve.sum() / total
			ph.m["broker.enact_share"] = enact.sum() / 1e3 / total
		}
		ph.m["core.allocs_per_cycle"] = float64(solveAllocs) / float64(cycles)
		if enacts > 0 {
			ph.m["broker.enact_allocs_per_op"] = float64(enactAllocs) / float64(enacts)
		}
	}
	return ph, nil
}

// verify checks the enacted allocation against the problem the last
// controller solved: the broker's problem with every class's demand at
// its attached count.
func (s *churnSys) verify() (float64, error) {
	final := s.ap.Engine().Problem()
	if s.byCycler {
		final = s.cy.prob
	}
	for j, ids := range s.ids {
		if final.Classes[j].MaxConsumers != len(ids) {
			return 0, fmt.Errorf("class %d: the controller's demand is %d, %d consumers are attached", j, final.Classes[j].MaxConsumers, len(ids))
		}
	}
	enacted, err := enactedAllocation(s.b, final)
	if err != nil {
		return 0, err
	}
	if err := model.CheckFeasible(final, model.NewIndex(final), enacted, feasTol); err != nil {
		return 0, err
	}
	cold, err := coldUtility(final)
	if err != nil {
		return 0, err
	}
	return model.TotalUtility(final, enacted) / cold, nil
}
