package broker

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/model"
)

// This file holds the data-plane side of the broker's control-plane /
// data-plane split.
//
// The data plane (Publish) never takes the broker mutex: it reads an
// immutable routing snapshot through an atomic pointer, admits the
// message on its flow's own token bucket, and walks the flow's class
// entries and their admitted-consumer lists, accumulating into atomic
// counters. Per-flow state is sharded so publishes on distinct flows
// share nothing but the snapshot pointer.
//
// The control plane (AttachConsumer, DetachConsumer, ApplyAllocation,
// SetClassRateCap) serializes on Broker.mu, mutates the authoritative
// state, and publishes a new snapshot that shares what did not change
// with its predecessor: a class's entry is rebuilt only when that class
// changes (enact.go). A Publish that raced a control operation delivers
// against whichever snapshot it loaded — each message sees one
// consistent routing view.

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
// control-plane array, not a copy. An entry is immutable once published
// and is shared, by pointer, by every snapshot until its class changes
// (classState.route); snapshots only carry classes with at least one
// admitted consumer.
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

// routeTable is the immutable routing snapshot the data plane reads: for
// every flow, pointers to its deliverable class entries in model.Index
// class order, addressed as blocks[flow>>shift][flow&(1<<shift-1)].
// Never mutated after publication; control-plane changes build and store
// a new table, which shares blocks, per-flow lists and entries with its
// predecessor and every consumer array with the control plane under the
// rule at the top of enact.go.
//
// The blocks keep an incremental republish from copying one slice header
// per flow. Both levels hold 24-byte headers, so a one-flow republish
// copies 24·(flows/size + size) bytes, least near size = √flows: shift
// is half the flow count's bit length, 16 flows per block at 240 flows
// and 128 at 10,000.
type routeTable struct {
	shift  uint
	blocks [][][]*classRoute
}

func (rt *routeTable) flowRoutes(i model.FlowID) []*classRoute {
	return rt.blocks[uint(i)>>rt.shift][int(i)&(1<<rt.shift-1)]
}

// routeLocked returns cs's routing entry as the state stands. Its
// consumers is the admitted prefix of the class's own attach-ordered
// array — a view, not a copy — and building it raises the class's
// published high-water mark (see the sharing rule at the top of
// enact.go). Callers must hold b.mu and only call it for a class that
// admits somebody.
func (cs *classState) routeLocked() classRoute {
	if cs.published < cs.admitted {
		cs.published = cs.admitted
	}
	_, identity := cs.transform.(Identity)
	return classRoute{
		transform: cs.transform,
		identity:  identity,
		thinner:   cs.thinner,
		counters:  &cs.counters,
		consumers: cs.consumers[:cs.admitted:cs.admitted],
	}
}

// buildRouteTableLocked builds a complete routing snapshot from the
// authoritative control-plane state: what New publishes, and the oracle
// the incremental path (republishLocked in enact.go) is tested against.
// It builds entries of its own, all in one slab, and never writes
// classState.route. Callers must hold b.mu (or be inside New, before the
// broker escapes).
func (b *Broker) buildRouteTableLocked() *routeTable {
	n := 0
	for j := range b.classes {
		if b.classes[j].admitted > 0 {
			n++
		}
	}
	entries := make([]classRoute, n)
	ptrs := make([]*classRoute, n)
	flows := len(b.p.Flows)
	shift := uint(bits.Len(uint(flows)) / 2)
	size := 1 << shift
	rt := &routeTable{shift: shift, blocks: make([][][]*classRoute, 0, (flows+size-1)/size)}
	for start := 0; start < flows; start += size {
		block := make([][]*classRoute, min(size, flows-start))
		for o := range block {
			k := 0
			for _, cid := range b.ix.ClassesByFlow(model.FlowID(start + o)) {
				if cs := &b.classes[cid]; cs.admitted > 0 {
					entries[0] = cs.routeLocked()
					ptrs[k], entries = &entries[0], entries[1:]
					k++
				}
			}
			if k > 0 {
				block[o], ptrs = ptrs[:k:k], ptrs[k:]
			}
		}
		rt.blocks = append(rt.blocks, block)
	}
	return rt
}
