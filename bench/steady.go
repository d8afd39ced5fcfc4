package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// steady_fanout: the broker's data plane does all the work and the
// optimizer none. One converged allocation is enacted at set-up; then
// closed-loop producers on disjoint flow sets publish as fast as
// Broker.Publish returns.

// nProducers is the number of load-generating goroutines, the host's
// nproc: a third would only queue behind the other two.
const nProducers = 2

// fanoutWindow is the batch the throughput median is taken over.
const fanoutWindow = 250 * time.Millisecond

// publishSampling is how many Publish calls there are to one whose service
// time is kept (and, traced, gets a span).
const publishSampling = 64

// padCount is a counter on a cache line of its own.
type padCount struct {
	n uint64
	_ [56]byte
}

type steadySys struct {
	*metroBroker
	groups [][]model.FlowID
	// fanout is each flow's admitted consumer count under the enacted
	// allocation, fixed for the run since no optimizer is running.
	fanout []int64
	// handled counts handler invocations per producer. Delivery is
	// synchronous inside Publish and the producers' flow sets are
	// disjoint, so each slot has one writer.
	handled [nProducers]padCount
	// accepted counts accepted publishes per flow over all phases.
	accepted []int64
	solved   float64
}

func setupSteady(seed int64, st setupTimes) (system, error) {
	p := workload.MetroSmall()
	s := &steadySys{groups: producerGroups(seed, len(p.Flows), nProducers)}
	group := make(map[model.FlowID]int)
	for g, flows := range s.groups {
		for _, f := range flows {
			group[f] = g
		}
	}
	mb, err := newMetroBroker(p, st, func(f model.FlowID) broker.Handler {
		slot := &s.handled[group[f]]
		return func(broker.Message) { slot.n++ }
	})
	if err != nil {
		return nil, err
	}
	s.metroBroker = mb

	var eng *core.Engine
	if err := st.timed("core.new_engine_ms", func() (err error) {
		eng, err = core.NewEngine(mb.demandProblem(), engineConfig)
		return err
	}); err != nil {
		return nil, err
	}
	defer eng.Close()
	res := eng.Solve(coldBudget)
	if !res.Converged {
		return nil, fmt.Errorf("set-up solve did not converge in %d iterations", coldBudget)
	}
	s.solved = res.Utility
	if err := mb.b.ApplyAllocation(res.Allocation); err != nil {
		return nil, err
	}
	s.fanout = make([]int64, len(mb.p.Flows))
	for j, cs := range mb.b.AllClassStats(nil) {
		s.fanout[mb.p.Classes[j].Flow] += int64(cs.Admitted)
	}
	s.accepted = make([]int64, len(mb.p.Flows))
	return s, nil
}

// producerObs is what one producer goroutine saw in one phase.
type producerObs struct {
	calls, accepted, throttled, errs int64
	deliveries                       int64
	serviceNs                        int64   // over all accepted publishes
	service                          series  // µs, every publishSampling-th call if accepted
	window                           []int64 // deliveries per fanoutWindow
	tr                               *tracer
}

func (s *steadySys) produce(g int, start time.Time, d time.Duration, traced bool) *producerObs {
	o := &producerObs{window: make([]int64, int(d/fanoutWindow)+1)}
	if traced {
		o.tr = newTracer(start)
	}
	flows := s.groups[g]
	attrs := map[string]float64{"price": 80} // read-only once published
	last := time.Now()
	for i := 0; ; i++ {
		f := flows[i%len(flows)]
		sampled := i%publishSampling == 0
		sp := -1
		if sampled {
			sp = o.tr.begin("broker.publish", int64(g)<<32|int64(i), -1)
		}
		err := s.b.Publish(f, attrs, "tick")
		if sampled {
			o.tr.end(sp)
		}
		now := time.Now()
		el := now.Sub(start)
		o.calls++
		switch {
		case err == nil:
			ns := now.Sub(last)
			s.accepted[f]++
			o.accepted++
			o.deliveries += s.fanout[f]
			o.serviceNs += int64(ns)
			// A call that ends past the deadline lands in the trailing
			// window, which measure drops.
			o.window[min(int(el/fanoutWindow), len(o.window)-1)] += s.fanout[f]
			if sampled {
				o.service = append(o.service, float64(ns)/1e3)
			}
		case errors.Is(err, broker.ErrThrottled):
			o.throttled++
		default:
			o.errs++
		}
		if el >= d {
			return o
		}
		last = now
	}
}

func (s *steadySys) measure(d time.Duration, tr *tracer) (*phase, error) {
	obs := make([]*producerObs, nProducers)
	pm := startProc()
	start := time.Now()
	var wg sync.WaitGroup
	for g := range obs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs[g] = s.produce(g, start, d, tr != nil)
		}(g)
	}
	wg.Wait()
	ph := newPhase()
	ph.proc = pm.stop()

	var (
		calls, accepted, throttled, deliveries, serviceNs int64
		service                                           series
	)
	windows := make([]int64, int(d/fanoutWindow)) // the trailing partial window is dropped
	for _, o := range obs {
		calls += o.calls
		accepted += o.accepted
		throttled += o.throttled
		deliveries += o.deliveries
		serviceNs += o.serviceNs
		ph.failed += o.errs
		service = append(service, o.service...)
		for w := range windows {
			windows[w] += o.window[w]
		}
		if tr != nil {
			tr.merge(o.tr)
		}
	}
	ph.attempted = calls
	for _, n := range windows {
		ph.rates = append(ph.rates, float64(n)/fanoutWindow.Seconds())
	}
	for _, us := range service {
		ph.latency = append(ph.latency, us/1e3)
	}
	ph.m["deliveries_per_s"] = float64(deliveries) / ph.proc.wall.Seconds()
	ph.timing("publish_us_p50", service, 0.5)
	ph.timing("publish_us_p99", service, 0.99)
	if deliveries > 0 && accepted > 0 && calls > 0 {
		ph.m["broker.publish_ns_per_delivery"] = float64(serviceNs) / float64(deliveries)
		ph.m["broker.fanout_per_msg"] = float64(deliveries) / float64(accepted)
		ph.m["broker.publish_allocs_per_op"] = float64(ph.proc.mallocs) / float64(calls)
		ph.m["broker.throttled_share"] = float64(throttled) / float64(calls)
	}
	return ph, nil
}

// verify checks that every accepted publish reached exactly the admitted
// consumers of its flow, by three independent counts: the handlers'
// invocations, the broker's own class counters, and accepted publishes
// times admitted fan-out.
func (s *steadySys) verify() (float64, error) {
	var want, handled, delivered int64
	for f, n := range s.accepted {
		want += n * s.fanout[f]
	}
	for g := range s.handled {
		handled += int64(s.handled[g].n)
	}
	for _, cs := range s.b.AllClassStats(nil) {
		delivered += int64(cs.Delivered)
	}
	if handled != want || delivered != want {
		return 0, fmt.Errorf("accepted publishes x admitted fan-out = %d deliveries, handlers ran %d times, broker counted %d", want, handled, delivered)
	}
	enacted, err := enactedAllocation(s.b, s.p)
	if err != nil {
		return 0, err
	}
	return model.TotalUtility(s.demandProblem(), enacted) / s.solved, nil
}

func (s *steadySys) close() {}
