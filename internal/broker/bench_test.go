package broker

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/utility"
	"repro/internal/workload"
)

// BenchmarkPublishFanout measures delivery cost per published message with
// 1000 admitted filtered consumers on one class: the filtered loop, every
// filter evaluated and passed.
func BenchmarkPublishFanout(b *testing.B) {
	benchPublishFanout(b, AttrFilter{Attr: "price", Op: CmpGT, Value: 50})
}

// BenchmarkPublishUnfiltered is BenchmarkPublishFanout without filters:
// 1000 admitted consumers on one Identity class, the steady_fanout shape,
// walk the unfiltered loop.
func BenchmarkPublishUnfiltered(b *testing.B) {
	benchPublishFanout(b, nil)
}

// benchPublishFanout publishes to 1000 admitted consumers of one class,
// each attached with filter f and a counting handler, and reports
// ns/delivery beside ns/op.
func benchPublishFanout(b *testing.B, f Filter) {
	const consumers = 1000
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	br, err := New(brokerProblem(), WithClock(func() time.Time {
		clock = clock.Add(time.Second) // keep the token bucket full
		return clock
	}))
	if err != nil {
		b.Fatal(err)
	}
	sink := 0
	for i := 0; i < consumers; i++ {
		if _, err := br.AttachConsumer(0, f, func(Message) { sink++ }); err != nil {
			b.Fatal(err)
		}
	}
	if err := br.ApplyAllocation(model.Allocation{Rates: []float64{1000}, Consumers: []int{consumers, 0}}); err != nil {
		b.Fatal(err)
	}
	attrs := map[string]float64{"price": 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish(0, attrs, "x"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sink != b.N*consumers {
		b.Fatalf("%d deliveries, want %d", sink, b.N*consumers)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*consumers), "ns/delivery")
}

// gridProblem builds a problem with `flows` flows of `perFlow` Identity
// classes each (class IDs run flow by flow), for the publish- and
// enact-path tests and benchmarks. Rates go up to 1e9 msg/s so a
// real-clock benchmark loop (refilling 1e9 tokens/s from a 1e9-token
// burst) never sees a throttle.
func gridProblem(flows, perFlow int) *model.Problem {
	p := &model.Problem{Name: "fan"}
	for i := 0; i < flows; i++ {
		p.Flows = append(p.Flows, model.Flow{
			ID: model.FlowID(i), Name: "f", Source: model.NodeID(i), RateMin: 10, RateMax: 1e9,
		})
		p.Nodes = append(p.Nodes, model.Node{
			ID: model.NodeID(i), Capacity: 9e9,
			FlowCost: map[model.FlowID]float64{model.FlowID(i): 1},
		})
		for k := 0; k < perFlow; k++ {
			p.Classes = append(p.Classes, model.Class{
				ID: model.ClassID(len(p.Classes)), Name: "c", Flow: model.FlowID(i), Node: model.NodeID(i),
				MaxConsumers: 64, CostPerConsumer: 1, Utility: utility.NewLog(10),
			})
		}
	}
	return p
}

// fanProblem is gridProblem with one class per flow.
func fanProblem(flows int) *model.Problem { return gridProblem(flows, 1) }

// gridBroker builds a gridProblem broker with `attached` consumers on
// every class and `admitted` of them admitted at 1e9 msg/s, and returns it
// with the enacted allocation. Each consumer's handler is the tag of its
// own label, numbered in attach order; on odd classes the label is its
// filter too, and even classes have no filters. (The broker never holds
// attachment to a class's MaxConsumers; that bound is the optimizer's.)
func gridBroker(tb testing.TB, flows, perFlow, attached, admitted int) (*Broker, model.Allocation) {
	tb.Helper()
	p := gridProblem(flows, perFlow)
	br, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	alloc := model.NewAllocation(p)
	for j := range p.Classes {
		for k := 0; k < attached; k++ {
			l := label(j*attached + k)
			var f Filter
			if j%2 == 1 {
				f = l
			}
			if _, err := br.AttachConsumer(model.ClassID(j), f, tag(l)); err != nil {
				tb.Fatal(err)
			}
		}
		alloc.Consumers[j] = admitted
	}
	for i := range p.Flows {
		alloc.Rates[i] = 1e9
	}
	if err := br.ApplyAllocation(alloc); err != nil {
		tb.Fatal(err)
	}
	return br, alloc
}

// benchBrokerFlows builds a broker over `flows` flows with `consumers`
// admitted filtered consumers per flow, all on the Identity transform.
// The broker runs on the real clock (the production configuration —
// shared fake clocks serialize parallel benchmarks on their own atomic).
func benchBrokerFlows(tb testing.TB, flows, consumers int) *Broker {
	tb.Helper()
	p := fanProblem(flows)
	br, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	// Each consumer counts receipts on its own cache line; a counter
	// shared across consumers would serialize the parallel benchmarks on
	// the handler instead of the broker.
	type paddedCount struct {
		n atomic.Uint64
		_ [120]byte
	}
	alloc := model.NewAllocation(p)
	for i := 0; i < flows; i++ {
		for k := 0; k < consumers; k++ {
			recv := new(paddedCount)
			if _, err := br.AttachConsumer(model.ClassID(i),
				AttrFilter{Attr: "price", Op: CmpGT, Value: 50},
				func(Message) { recv.n.Add(1) }); err != nil {
				tb.Fatal(err)
			}
		}
		alloc.Rates[i] = 1e9
		alloc.Consumers[i] = consumers
	}
	if err := br.ApplyAllocation(alloc); err != nil {
		tb.Fatal(err)
	}
	return br
}

// BenchmarkPublishParallel is the contention worst case: every goroutine
// publishes on the same single hot flow (8 admitted consumers, Identity
// transform). Before the copy-on-write data plane this serialized on the
// broker's global mutex; run with -cpu=1,4 to see the scaling.
func BenchmarkPublishParallel(b *testing.B) {
	br := benchBrokerFlows(b, 1, 8)
	attrs := map[string]float64{"price": 80}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := br.Publish(0, attrs, "x"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublishMultiFlow spreads publishers over 16 flows (8 admitted
// consumers each): the no-sharing best case where per-flow state should
// let distinct flows publish without contending at all.
func BenchmarkPublishMultiFlow(b *testing.B) {
	const flows = 16
	br := benchBrokerFlows(b, flows, 8)
	attrs := map[string]float64{"price": 80}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		flow := model.FlowID(next.Add(1) % flows)
		for pb.Next() {
			if err := br.Publish(flow, attrs, "x"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchDeltaBroker builds a broker of one class and 2 admitted consumers
// per flow with its allocation enacted — at 10k flows, the incremental
// enact path's scale fixture.
func benchDeltaBroker(tb testing.TB, flows int) (*Broker, model.Allocation) {
	tb.Helper()
	return gridBroker(tb, flows, 1, 2, 2)
}

// BenchmarkApplyAllocationDelta: a single-class admission delta on a
// 10k-flow broker. The incremental path should rebuild exactly one
// flow's route slice and share the other 9999 — cost proportional to
// the delta, not the broker. Compare against
// BenchmarkApplyAllocationFullRebuild for the old cost of the same call.
func BenchmarkApplyAllocationDelta(b *testing.B) {
	br, alloc := benchDeltaBroker(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.Consumers[0] = 1 + i%2 // flip one class between 1 and 2 admitted
		if err := br.ApplyAllocation(alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyAllocationNoop: re-enacting the enacted allocation on a
// 10k-flow broker. Acceptance bar: ≤ 2 allocs/op (designed for 0) and
// no snapshot publication.
func BenchmarkApplyAllocationNoop(b *testing.B) {
	br, alloc := benchDeltaBroker(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.ApplyAllocation(alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyAllocationFullRebuild forces the from-scratch snapshot
// build on the same 10k-flow broker — the cost every ApplyAllocation
// paid before the incremental path, kept as the honest baseline for the
// Delta benchmark's speedup claim.
func BenchmarkApplyAllocationFullRebuild(b *testing.B) {
	br, _ := benchDeltaBroker(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.mu.Lock()
		br.route.Store(br.buildRouteTableLocked())
		br.mu.Unlock()
	}
}

// BenchmarkApplyAllocation measures enactment cost on the base workload
// with its full consumer population attached.
func BenchmarkApplyAllocation(b *testing.B) {
	p := workload.Base()
	br, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	for j, c := range p.Classes {
		for k := 0; k < c.MaxConsumers; k++ {
			if _, err := br.AttachConsumer(model.ClassID(j), nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	alloc := model.NewAllocation(p)
	for j, c := range p.Classes {
		alloc.Consumers[j] = c.MaxConsumers / 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.Consumers[0] = i % 400 // force real churn
		if err := br.ApplyAllocation(alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMetroBroker builds the broker the end-to-end demand_churn workload
// runs on — workload.MetroSmall(): 240 flows of 40 classes — with 100
// consumers attached to every class and 90 of them admitted, and returns
// it with the enacted allocation.
func benchMetroBroker(tb testing.TB) (*Broker, model.Allocation) {
	tb.Helper()
	p := workload.MetroSmall()
	br, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	alloc := model.NewAllocation(p)
	for j := range p.Classes {
		for k := 0; k < 100; k++ {
			if _, err := br.AttachConsumer(model.ClassID(j), nil, nil); err != nil {
				tb.Fatal(err)
			}
		}
		alloc.Consumers[j] = 90
	}
	for i, f := range p.Flows {
		alloc.Rates[i] = f.RateMin
	}
	if err := br.ApplyAllocation(alloc); err != nil {
		tb.Fatal(err)
	}
	return br, alloc
}

// BenchmarkApplyAllocationWide is the delta an autopilot cycle under
// consumer churn actually enacts: n_j moves by one on 340 classes spread
// over every third flow (80 of 240, past the quarter that used to send the
// enact down a full rebuild), each class holding ~100 consumers. The cost
// should follow the 340 admissions moved, not the 860,000 kept.
func BenchmarkApplyAllocationWide(b *testing.B) {
	br, alloc := benchMetroBroker(b)
	var moved []model.ClassID
	for i := 0; i < len(br.p.Flows); i += 3 {
		n := 4
		if i%12 == 0 {
			n = 5
		}
		moved = append(moved, br.classesOf(model.FlowID(i))[:n]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range moved {
			alloc.Consumers[j] = 89 + i%2
		}
		if err := br.ApplyAllocation(alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttachConsumer: attach one consumer to a class of the metro
// broker, walking over its classes, as demand_churn's attach batches do.
// Once per pass, off the clock, the pass's consumers (never admitted) are
// detached again, so every class stays at about 100.
func BenchmarkAttachConsumer(b *testing.B) {
	br, _ := benchMetroBroker(b)
	classes := len(br.p.Classes)
	ids := make([]ConsumerID, 0, classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := br.AttachConsumer(model.ClassID(i*37%classes), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
		if len(ids) == classes {
			b.StopTimer()
			for _, id := range ids {
				if err := br.DetachConsumer(id); err != nil {
					b.Fatal(err)
				}
			}
			ids = ids[:0]
			b.StartTimer()
		}
	}
}

// BenchmarkDetachAdmitted: detach a consumer from the middle of a class's
// admitted prefix and attach a replacement, walking over the classes of
// the metro broker. Each detach rebuilds its class's entry and its flow's
// list of 40 entry pointers; the allocation is re-enacted, off the clock, once per pass so that
// every class keeps its 90 admitted.
func BenchmarkDetachAdmitted(b *testing.B) {
	br, alloc := benchMetroBroker(b)
	classes := len(br.p.Classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := model.ClassID(i * 37 % classes)
		if err := br.DetachConsumer(br.classes[j].ids[45]); err != nil {
			b.Fatal(err)
		}
		if _, err := br.AttachConsumer(j, nil, nil); err != nil {
			b.Fatal(err)
		}
		if i%classes == classes-1 {
			b.StopTimer()
			if err := br.ApplyAllocation(alloc); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
