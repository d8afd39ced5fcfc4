package broker

import (
	"slices"
	"time"

	"repro/internal/telemetry"
)

// This file holds the incremental enact path: the machinery that makes a
// control-plane change cost proportional to what it changed instead of to
// broker size.
//
// Every control operation that can alter admitted membership (attach
// never does; detach, ApplyAllocation and SetClassRateCap can) appends
// the classes it dirtied to b.dirtyClasses and then calls
// republishLocked, which has two outcomes:
//
//   - route noop: no class's deliverable membership moved, so the
//     previous snapshot stays published. A rate-only ApplyAllocation
//     lands here — token buckets are re-rated in place and nothing swaps.
//   - incremental: each dirty class's entry is rebuilt into one
//     []classRoute slab and becomes its classState.route (nil when the
//     class admits nobody); each dirty flow's pointer list is gathered
//     from its classes' route fields into one []*classRoute slab; the
//     top-level block array is copied and every block holding a dirty
//     flow is cloned. Every clean entry, flow list and block is shared,
//     by pointer, with the predecessor snapshot: a republish builds one
//     entry per class it changed, not one per class of the flows it
//     dirtied, and a dirty flow costs one pointer per deliverable class.
//
// No consumer pointer is copied either way: a classRoute's consumers is
// the prefix cs.consumers[:cs.admitted] of the class's own attach-ordered
// array (the admitted set is always that prefix; see ApplyAllocation), so
// admitting and unadmitting re-slice. The data plane reads snapshots
// lock-free with no grace period, so sharing is safe only under one rule:
// an element any snapshot can reach is never overwritten. cs.published is
// the longest prefix ever published from the array cs.consumers lives in,
// and the control plane writes only at indices >= it: attach appends past
// it (or append moves the class to a fresh array and old snapshots keep
// the old one), a detach at or past it shifts the tail in place, a detach
// inside it copies that one class to a fresh array (classState.removeAt).
// What is written at such an index becomes reachable only through a later
// snapshot, and route.Store is the publication point: a publisher that
// loads the table sees every write made before the store. The entry and
// pointer slabs are never reused either; reuse is confined to
// control-plane scratch (dirtyClasses, dirtyFlows, the epoch-marked
// flowMark and blockMark), where the mutex makes it safe.

// EnactStats is the cumulative accounting of the enact path, one counter
// set per broker. Applies counts ApplyAllocation calls; NoopApplies the
// subset that changed no rate and no membership. The Route* counters
// classify every republish decision (allocations, detaches and rate-cap
// changes alike) by outcome; ClassesTouched, FlowsTouched and
// RatesChanged total the per-operation deltas.
type EnactStats struct {
	Applies           uint64
	NoopApplies       uint64
	RouteNoops        uint64
	RouteIncrementals uint64
	ClassesTouched    uint64
	FlowsTouched      uint64
	RatesChanged      uint64
}

// EnactStats returns a copy of the broker's cumulative enact accounting.
func (b *Broker) EnactStats() EnactStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.enactStats
}

type enactTelemetryOption struct {
	m *telemetry.EnactMetrics
}

func (o enactTelemetryOption) apply(b *Broker) { b.enactTel = o.m }

// WithEnactTelemetry mirrors the enact path's accounting into m (see
// telemetry.NewEnactMetrics): per-operation wall time, route-build
// outcome, and touch counts. A nil handle is valid and leaves the enact
// path uninstrumented.
func WithEnactTelemetry(m *telemetry.EnactMetrics) Option {
	return enactTelemetryOption{m: m}
}

// AllClassStats returns a snapshot of every class's delivery-side
// counters in one call, appending into dst (reused when capacity
// suffices) and returning it: one scrape of thousands of classes without
// a call per class. Served from atomics like ClassStats — never takes
// the broker mutex, never stalls publishers. Within one class the fields
// are individually exact; across classes the snapshot is not atomic,
// same as any multi-counter scrape.
func (b *Broker) AllClassStats(dst []ClassStats) []ClassStats {
	if cap(dst) < len(b.classes) {
		dst = make([]ClassStats, len(b.classes))
	} else {
		dst = dst[:len(b.classes)]
	}
	for j := range b.classes {
		cc := &b.classes[j].counters
		dst[j] = ClassStats{
			Attached:  int(cc.attached.Load()),
			Admitted:  int(cc.admitted.Load()),
			Delivered: cc.delivered.Load(),
			Filtered:  cc.filtered.Load(),
			Thinned:   cc.thinned.Load(),
		}
	}
	return dst
}

// republishLocked publishes the route-snapshot consequence of the dirty
// classes accumulated since the last republish, consuming b.dirtyClasses.
// Callers must hold b.mu. Returns the telemetry.EnactRoute* outcome and
// the number of flows whose route list was rebuilt.
func (b *Broker) republishLocked() (mode, flowsTouched int) {
	if len(b.dirtyClasses) == 0 {
		return telemetry.EnactRouteNoop, 0
	}
	// Rebuild the dirty classes' entries, all in one slab, and map them to
	// their flows, deduplicating with the epoch marker so several dirty
	// classes of one flow gather it once. The epoch bump replaces clearing
	// flowMark, keeping the small-delta path O(delta) rather than O(flows).
	n := 0
	for _, cid := range b.dirtyClasses {
		if b.admittedCount[cid] > 0 {
			n++
		}
	}
	entries := make([]classRoute, n)
	b.markEpoch++
	b.dirtyFlows = b.dirtyFlows[:0]
	for _, cid := range b.dirtyClasses {
		cs := &b.classes[cid]
		cs.route = nil
		if cs.admitted > 0 {
			entries[0] = cs.routeLocked()
			cs.route, entries = &entries[0], entries[1:]
		}
		fid := b.p.Classes[cid].Flow
		if b.flowMark[fid] != b.markEpoch {
			b.flowMark[fid] = b.markEpoch
			b.dirtyFlows = append(b.dirtyFlows, fid)
		}
	}
	b.dirtyClasses = b.dirtyClasses[:0]
	// Gather the dirty flows' entry lists into one slab. A class holds an
	// entry exactly when it admits somebody: every change of its admitted
	// count dirties it.
	n = 0
	for _, fid := range b.dirtyFlows {
		for _, cid := range b.ix.ClassesByFlow(fid) {
			if b.admittedCount[cid] > 0 {
				n++
			}
		}
	}
	ptrs := make([]*classRoute, n)
	old := b.route.Load()
	blocks := make([][][]*classRoute, len(old.blocks))
	copy(blocks, old.blocks)
	mask := 1<<old.shift - 1
	for _, fid := range b.dirtyFlows {
		k := int(fid) >> old.shift
		if b.blockMark[k] != b.markEpoch {
			// First dirty flow in this block: clone it (the markEpoch bump
			// above doubles as the per-republish block dedup).
			b.blockMark[k] = b.markEpoch
			blocks[k] = slices.Clone(old.blocks[k])
		}
		n = 0
		for _, cid := range b.ix.ClassesByFlow(fid) {
			if r := b.classes[cid].route; r != nil {
				ptrs[n] = r
				n++
			}
		}
		var routes []*classRoute
		if n > 0 {
			routes, ptrs = ptrs[:n:n], ptrs[n:]
		}
		blocks[k][int(fid)&mask] = routes
	}
	b.route.Store(&routeTable{shift: old.shift, blocks: blocks})
	return telemetry.EnactRouteIncremental, len(b.dirtyFlows)
}

// observeEnactLocked folds one control operation's enact outcome into the
// cumulative EnactStats and, when enact telemetry is attached, records
// its wall time and touch counts. startNanos is time.Now().UnixNano()
// captured at operation entry when telemetry is attached, 0 otherwise
// (the uninstrumented path never reads the real clock). Callers must
// hold b.mu.
func (b *Broker) observeEnactLocked(startNanos int64, mode, classes, flows, rates int) {
	s := &b.enactStats
	if mode == telemetry.EnactRouteNoop {
		s.RouteNoops++
	} else {
		s.RouteIncrementals++
	}
	s.ClassesTouched += uint64(classes)
	s.FlowsTouched += uint64(flows)
	s.RatesChanged += uint64(rates)
	if b.enactTel != nil {
		b.enactTel.ObserveApply(time.Now().UnixNano()-startNanos, mode, classes, flows, rates)
	}
}

// enactStartNanos captures the wall-clock start of an enact, but only
// when telemetry wants it. enactTel is immutable after New, so callers
// may invoke this before taking b.mu.
func (b *Broker) enactStartNanos() int64 {
	if b.enactTel == nil {
		return 0
	}
	return time.Now().UnixNano()
}
