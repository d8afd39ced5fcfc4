package main

import (
	"fmt"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
)

// engineConfig is how every layer's engine is built: the zero value plus
// Adaptive, exactly as cmd/lrgp-broker does, so that a change of a default
// shows in the benchmark and a new knob left off does not.
var engineConfig = core.Config{Adaptive: true}

// coldBudget bounds the cold solves of set-up and of the utility_ratio
// reference; every workload converges in well under a tenth of it.
const coldBudget = 4000

// metroBroker is the broker steady_fanout and demand_churn share: a
// problem (workload.MetroSmall()) with half of every class's MaxConsumers
// attached.
type metroBroker struct {
	p *model.Problem
	b *broker.Broker
	// ids lists the attached consumers of each class, in attach order.
	ids [][]broker.ConsumerID
}

// newMetroBroker builds it; handler returns the handler for the consumers
// of one flow.
func newMetroBroker(p *model.Problem, st setupTimes, handler func(model.FlowID) broker.Handler) (*metroBroker, error) {
	if _, err := st.validateIndex(p); err != nil {
		return nil, err
	}
	b, err := broker.New(p)
	if err != nil {
		return nil, err
	}
	mb := &metroBroker{p: p, b: b, ids: make([][]broker.ConsumerID, len(p.Classes))}
	for j, c := range p.Classes {
		h := handler(c.Flow)
		mb.ids[j] = make([]broker.ConsumerID, 0, c.MaxConsumers)
		for k := 0; k < c.MaxConsumers/2; k++ {
			id, err := b.AttachConsumer(model.ClassID(j), nil, h)
			if err != nil {
				return nil, err
			}
			mb.ids[j] = append(mb.ids[j], id)
		}
	}
	return mb, nil
}

// noopHandler is the consumer of the workloads that do not count
// deliveries.
func noopHandler(broker.Message) {}

// demandProblem is the broker's problem with every class's demand set to
// what is attached, which is the problem an optimizer for this broker
// solves.
func (mb *metroBroker) demandProblem() *model.Problem {
	q := mb.p.Clone()
	for j := range q.Classes {
		q.Classes[j].MaxConsumers = len(mb.ids[j])
	}
	return q
}

// enactedAllocation reads back what b currently enforces: each flow's
// token-bucket rate and each class's admitted count.
func enactedAllocation(b *broker.Broker, p *model.Problem) (model.Allocation, error) {
	a := model.Allocation{Rates: make([]float64, len(p.Flows)), Consumers: make([]int, len(p.Classes))}
	for i := range p.Flows {
		fs, err := b.FlowStats(model.FlowID(i))
		if err != nil {
			return a, err
		}
		a.Rates[i] = fs.Rate
	}
	for j, cs := range b.AllClassStats(nil) {
		a.Consumers[j] = cs.Admitted
	}
	return a, nil
}

// coldUtility solves a copy of p from scratch with a fresh engine and
// returns the utility it settles at: the reference of utility_ratio.
func coldUtility(p *model.Problem) (float64, error) {
	e, err := core.NewEngine(p.Clone(), engineConfig)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	res := e.Solve(coldBudget)
	if !res.Converged {
		return 0, fmt.Errorf("cold reference solve did not converge in %d iterations", coldBudget)
	}
	return res.Utility, nil
}

// feasTol is the absolute slack CheckFeasible gets per capacity
// comparison: the engine's usage sums and the checker's are grouped
// differently, so they agree only to rounding. Every capacity of every
// workload is above 2,000, which makes this under a millionth of any.
const feasTol = 1e-3
