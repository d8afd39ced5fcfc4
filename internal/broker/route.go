package broker

import (
	"math"
	"sync/atomic"

	"repro/internal/model"
)

// This file holds the data-plane side of the broker's control-plane /
// data-plane split.
//
// The data plane (Publish) never takes the broker mutex: it reads an
// immutable routing snapshot through an atomic pointer, admits the
// message on its flow's own token bucket, and walks the snapshot's
// admitted-consumer lists, accumulating into atomic counters. Per-flow
// state is sharded so publishes on distinct flows share nothing but the
// snapshot pointer.
//
// The control plane (AttachConsumer, DetachConsumer, ApplyAllocation,
// SetClassRateCap) serializes on Broker.mu, mutates the authoritative
// state, and publishes a new snapshot that shares what did not change
// with its predecessor (enact.go). A Publish that raced a control
// operation delivers against whichever snapshot it loaded — each message
// sees one consistent routing view.

// flowState is the per-flow data-plane shard: the source token bucket
// (internally locked, shared with nobody else), the per-flow sequence
// counter, and the publish-side stat counters. Publishes on distinct
// flows touch distinct flowStates and therefore never contend.
type flowState struct {
	bucket    *TokenBucket
	seq       atomic.Uint64
	published atomic.Uint64
	throttled atomic.Uint64
	// rateBits holds math.Float64bits of the most recently enacted rate,
	// mirroring the bucket's refill rate so FlowStats never touches the
	// bucket's lock.
	rateBits atomic.Uint64
	// work is this flow's shard of the broker-wide abstract work
	// counter; Broker.WorkUnits sums the shards. Keeping it per flow
	// removes the last cross-flow write on the publish path.
	work atomic.Uint64
	// _pad spaces adjacent flowStates onto separate cache lines so
	// multi-flow publishers do not false-share counter lines.
	_pad [80]byte //nolint:unused // padding, deliberately never read
}

func (f *flowState) rate() float64 {
	return math.Float64frombits(f.rateBits.Load())
}

func (f *flowState) setRate(r float64) {
	f.rateBits.Store(math.Float64bits(r))
}

// classCounters is the delivery-side accounting of one class. The
// counters live in the control-plane classState (so they survive
// snapshot rebuilds) and are referenced by pointer from every snapshot;
// both planes update them with atomics only, so ClassStats and telemetry
// scrapes never stall a publish.
type classCounters struct {
	attached  atomic.Int64
	admitted  atomic.Int64
	delivered atomic.Uint64
	filtered  atomic.Uint64
	thinned   atomic.Uint64
}

// classRoute is one class's routing entry in a snapshot: the compiled
// transform, the shared thinner handle, the counter block, and the
// admitted consumers in attach order — a prefix view of the class's
// control-plane array, not a copy. Snapshots only carry classes with at
// least one admitted consumer.
type classRoute struct {
	transform Transform
	// identity marks the Transform as the Identity fast path: the
	// message is delivered with the producer's attribute map, no clone.
	identity bool
	// thinner, when non-nil, caps the class's delivery rate. The bucket
	// is owned by the control plane and shared across snapshots; it is
	// internally locked.
	thinner   *TokenBucket
	counters  *classCounters
	consumers []*consumer
}

// Route snapshots store per-flow slices in fixed-size blocks so an
// incremental republish copies one small block, not one slice header per
// flow: on a 10k-flow broker a flat [][]classRoute costs a ~240KB header
// copy per enact. Both levels hold 24-byte slice headers, so a one-flow
// republish copies 24·(flows/size + size) bytes, least near size =
// √flows: 64 costs 5.3KB at 10,000 flows and 1.6KB at 240, where 256
// cost 7.1KB and 5.8KB (BenchmarkApplyAllocationDelta, DetachAdmitted).
const (
	routeBlockBits = 6
	routeBlockSize = 1 << routeBlockBits
	routeBlockMask = routeBlockSize - 1
)

// routeTable is the immutable routing snapshot the data plane reads: for
// every flow, the deliverable class routes in model.Index class order,
// addressed as blocks[flow>>routeBlockBits][flow&routeBlockMask]. Never
// mutated after publication; control-plane changes build and store a new
// table (which may share blocks, and per-flow slices inside fresh
// blocks, with its predecessor, and shares every consumer array with the
// control plane under the rule at the top of enact.go).
type routeTable struct {
	blocks [][][]classRoute
}

func (rt *routeTable) flowRoutes(i model.FlowID) []classRoute {
	return rt.blocks[i>>routeBlockBits][i&routeBlockMask]
}

// buildFlowRoutesLocked builds one flow's deliverable class routes from
// the authoritative control-plane state, in model.Index class order.
// Callers must hold b.mu. The returned slice is freshly allocated and
// never mutated after publication, so it may be spliced into a snapshot
// that shares every other flow's slice with its predecessor. Each entry's
// consumers is the admitted prefix of the class's own attach-ordered
// array — a view, not a copy — and building it raises the class's
// published high-water mark (see the sharing rule at the top of enact.go).
func (b *Broker) buildFlowRoutesLocked(i model.FlowID) []classRoute {
	classes := b.ix.ClassesByFlow(i)
	n := 0
	for _, cid := range classes {
		if b.classes[cid].admitted > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	routes := make([]classRoute, 0, n)
	for _, cid := range classes {
		cs := &b.classes[cid]
		if cs.admitted == 0 {
			continue
		}
		if cs.published < cs.admitted {
			cs.published = cs.admitted
		}
		_, identity := cs.transform.(Identity)
		routes = append(routes, classRoute{
			transform: cs.transform,
			identity:  identity,
			thinner:   cs.thinner,
			counters:  &cs.counters,
			consumers: cs.consumers[:cs.admitted:cs.admitted],
		})
	}
	return routes
}

// buildRouteTableLocked builds a complete routing snapshot from the
// authoritative control-plane state: what New publishes, and the oracle
// the incremental path (republishLocked in enact.go) is tested against.
// Callers must hold b.mu (or be inside New, before the broker escapes).
func (b *Broker) buildRouteTableLocked() *routeTable {
	flows := len(b.p.Flows)
	nb := (flows + routeBlockSize - 1) / routeBlockSize
	rt := &routeTable{blocks: make([][][]classRoute, nb)}
	for k := 0; k < nb; k++ {
		n := flows - k*routeBlockSize
		if n > routeBlockSize {
			n = routeBlockSize
		}
		block := make([][]classRoute, n)
		for o := range block {
			block[o] = b.buildFlowRoutesLocked(model.FlowID(k*routeBlockSize + o))
		}
		rt.blocks[k] = block
	}
	return rt
}
