package broker

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// This file holds the broker's control-plane state and its operations.
//
// A consumer is a slot in its class, not an object of its own: each
// classState keeps its handlers and ids in the same attach order, plus
// filters beside them once the class has a filtered consumer. Route
// snapshots share handlers and filters under the published-prefix rule of
// enact.go; ids is the control plane's alone.
// DetachConsumer and Admitted decode the class from the ConsumerID and
// binary-search its ids, which ascend; there is no broker-wide map.
// Admission is position: the first classState.admitted entries are
// admitted, so an enact stores a count and flips nothing per consumer.

// ConsumerID identifies an attached consumer. Its low bits are the
// consumer's class (as many as bits.Len of the broker's class count) and
// its upper bits a broker-wide attach sequence, so IDs are never reused
// and, within one class, grow in attach order. An ID is valid only on the
// broker that issued it.
type ConsumerID int64

// Handler receives messages delivered to one consumer. Handlers run
// synchronously inside Publish and must return quickly. Concurrent
// publishes on a flow may invoke the same handler concurrently, so
// handlers must be safe for concurrent use. The delivered Message's
// Attrs map is read-only by contract: on the Identity-transform fast
// path it is the producer's own map, shared by every consumer of the
// message (see Message.Attrs).
type Handler func(m Message)

// Errors returned by broker operations.
var (
	ErrUnknownClass    = errors.New("broker: unknown class")
	ErrUnknownFlow     = errors.New("broker: unknown flow")
	ErrUnknownConsumer = errors.New("broker: unknown consumer")
	ErrThrottled       = errors.New("broker: rate limit exceeded")
	// ErrBadRate: an allocation holds a negative, NaN or infinite rate,
	// or a class rate cap is NaN or +Inf.
	ErrBadRate = errors.New("broker: rate is negative or not finite")
	// ErrConsumerIDsExhausted: the attach sequence has no room left in a
	// ConsumerID; attaching refuses rather than reuse an ID.
	ErrConsumerIDsExhausted = errors.New("broker: consumer IDs exhausted")
)

// classState is the authoritative (control-plane) state of one class.
// The broker mutex guards transform, handlers, ids, filters, admitted and
// thinner installation; the counter block is updated with atomics from
// both planes and shared by pointer with every route snapshot.
type classState struct {
	transform Transform
	// handlers and ids are the attached consumers in attach order, entry
	// for entry; admission follows this order (earliest attached admitted
	// first, latest unadmitted first on shrink), so the admitted set is
	// handlers[:admitted]. Snapshots share handlers' array under the
	// published rule; ids is the control plane's alone, ascending (IDs
	// grow in attach order), and found by binary search.
	handlers []Handler
	ids      []ConsumerID
	// filters is nil until the class's first consumer with a filter
	// attaches. From then on it runs entry for entry beside handlers, with
	// the same capacity, grows and moves to a fresh array with it, and is
	// shared by snapshots under the same rule; a nil entry matches
	// everything (AttachConsumer stores MatchAll as nil, so Publish skips
	// the call). A class keeps it once it has it.
	filters  []Filter
	admitted int
	// published is the longest prefix of the current backing arrays of
	// handlers and filters any route snapshot may still read (snapshots
	// share the arrays rather than copy out of them; see enact.go). The
	// control plane never writes an index below it in either; moving to
	// fresh arrays resets it to 0.
	published int
	// thinner, when set, caps this class's delivery rate below the
	// flow's source rate (multirate thinning: elastic consumers receive
	// a subsampled stream, per the latest-price scenario's "reducing
	// the frequency of updates").
	thinner  *TokenBucket
	counters classCounters
	// route is the immutable entry the published snapshot holds for this
	// class, nil when it admits nobody; republishLocked replaces it when
	// the class is dirty, and every clean flow list keeps pointing at it.
	route *classRoute
}

// removeAt drops entry k, keeping attach order. ids is never published,
// so it always shifts in place. At or past the published high-water mark
// no snapshot can read what moves in handlers or filters either, so their
// tails shift down in place too (slices.Delete also clears the vacated
// slot: the arrays must not keep the departed consumer's handler and
// filter alive). Inside it, a snapshot may still be walking the very
// entries a shift would overwrite: they keep the old arrays and the class
// moves to fresh ones.
func (cs *classState) removeAt(k int) {
	cs.ids = slices.Delete(cs.ids, k, k+1)
	cs.handlers = removeShared(cs.handlers, k, cs.published)
	if cs.filters != nil {
		cs.filters = removeShared(cs.filters, k, cs.published)
	}
	if k < cs.published {
		cs.published = 0
	}
}

// removeShared drops entry k of s, in place when k is at or past the
// published prefix, else into a fresh array of s's capacity.
func removeShared[E any](s []E, k, published int) []E {
	if k >= published {
		return slices.Delete(s, k, k+1)
	}
	fresh := make([]E, len(s)-1, cap(s))
	copy(fresh, s[:k])
	copy(fresh[k:], s[k+1:])
	return fresh
}

// FlowStats reports one flow's publish-side accounting.
type FlowStats struct {
	Published uint64
	Throttled uint64
	Rate      float64
}

// ClassStats reports one class's delivery-side accounting. Delivered and
// Filtered are cumulative class totals: they keep counting across
// consumer churn and are not reduced when a consumer detaches.
type ClassStats struct {
	Attached  int
	Admitted  int
	Delivered uint64
	Filtered  uint64
	// Thinned counts messages dropped for this class by its delivery-
	// rate cap (see SetClassRateCap).
	Thinned uint64
}

// Broker hosts the flows and consumer classes of one problem instance and
// enacts optimizer allocations. All methods are safe for concurrent use.
//
// The broker is split into a lock-free data plane and a mutex-serialized
// control plane. Publish reads an immutable routing snapshot through an
// atomic pointer and touches only its flow's own sharded state, so
// publishes on distinct flows never contend and publishes on the same
// flow contend only on that flow's token bucket. Control operations
// (attach/detach, ApplyAllocation, SetClassRateCap) serialize on the
// mutex and publish a rebuilt snapshot (copy-on-write); a publish racing
// a control change delivers against whichever snapshot it loaded.
type Broker struct {
	p *model.Problem
	// classOff and classIDs hold the flow → classes incidence, the only
	// lookup the broker needs: flow i's classes, in ascending ClassID
	// order, are classIDs[classOff[i]:classOff[i+1]] (see classesOf).
	classOff []int32
	classIDs []model.ClassID

	now func() time.Time

	// Data plane: per-flow shards and the routing snapshot. Stats
	// methods read these without locking. The abstract work counter
	// (one unit per message routed, per class transform applied, per
	// filter evaluation, per delivery — regressed by the calibrate
	// package to recover the paper's F/G resource-model coefficients)
	// is sharded into the flowStates; each Publish folds its units into
	// a single atomic add on its own flow's shard, so the total is
	// exact under concurrency and deterministic for a fixed serial
	// publish sequence.
	flows []flowState
	route atomic.Pointer[routeTable]

	// Control plane, guarded by mu.
	mu      sync.Mutex
	classes []classState
	// classBits is how many low bits of a ConsumerID hold its class;
	// nextSeq is the attach sequence the next ID carries above them.
	classBits uint
	nextSeq   int64

	// reg, when set (WithTelemetry), exports the broker's own counters,
	// read when scraped (see registerTelemetry). fanout and applySeconds
	// are the only instruments observed as events happen, each behind a
	// nil check: an uninstrumented publish pays one branch.
	reg          *telemetry.Registry
	fanout       *telemetry.Histogram
	applySeconds *telemetry.Histogram

	// Incremental-enact state (control-plane owned, guarded by mu; see
	// enact.go). dirtyClasses and dirtyFlows are scratch reused across
	// enacts; flowMark and blockMark with markEpoch dedup dirty flows
	// and route blocks without an O(flows) clear.
	dirtyClasses []model.ClassID
	dirtyFlows   []model.FlowID
	flowMark     []uint64
	blockMark    []uint64
	markEpoch    uint64
	enactStats   EnactStats

	// Dense copies of each flow's enacted rate and each class's attached
	// and admitted counts, guarded by mu like the state they copy.
	// ApplyAllocation's diff streams these sequential arrays instead of
	// dereferencing every padded flowState and classState (~20k scattered
	// cache misses on a 10k-flow broker).
	enactedRates  []float64
	attachedCount []int32
	admittedCount []int32
}

// Option configures a Broker.
type Option interface {
	apply(*Broker)
}

type clockOption struct {
	now func() time.Time
}

func (o clockOption) apply(b *Broker) { b.now = o.now }

// WithClock injects a time source (deterministic tests). Under
// concurrent publishing the source must be safe for concurrent use.
func WithClock(now func() time.Time) Option {
	return clockOption{now: now}
}

type transformOption struct {
	class model.ClassID
	tr    Transform
}

func (o transformOption) apply(b *Broker) {
	b.classes[o.class].transform = o.tr
}

// WithTransform installs a per-class message transformation.
func WithTransform(class model.ClassID, tr Transform) Option {
	return transformOption{class: class, tr: tr}
}

type telemetryOption struct {
	reg *telemetry.Registry
}

func (o telemetryOption) apply(b *Broker) { b.reg = o.reg }

// WithTelemetry exports the broker's accounting through reg: the
// lrgp_broker_* family and the enact path's lrgp_enact_* metrics, which an
// Autopilot built on the broker completes with its cycle metrics. Every
// counter and gauge reads the broker's own stats when reg is scraped; only
// the fan-out and enact wall-time histograms are observed as they happen.
// A registry exports the first broker registered on it. A nil reg is valid
// and leaves the broker uninstrumented.
func WithTelemetry(reg *telemetry.Registry) Option {
	return telemetryOption{reg: reg}
}

// registerTelemetry registers the broker's metrics on reg. Each counter
// and gauge is a func over state the broker keeps anyway: the flow and
// class atomics FlowStats and AllClassStats read (never blocking
// publishers), WorkUnits, and EnactStats, which takes b.mu for the length
// of a copy.
func (b *Broker) registerTelemetry(reg *telemetry.Registry) {
	flowTotal := func(read func(f *flowState) uint64) func() uint64 {
		return func() (n uint64) {
			for i := range b.flows {
				n += read(&b.flows[i])
			}
			return n
		}
	}
	classTotal := func(read func(c *classCounters) uint64) func() uint64 {
		return func() (n uint64) {
			for j := range b.classes {
				n += read(&b.classes[j].counters)
			}
			return n
		}
	}
	population := func(read func(c *classCounters) uint64) func() float64 {
		total := classTotal(read)
		return func() float64 { return float64(total()) }
	}
	enact := func(read func(s *EnactStats) uint64) func() uint64 {
		return func() uint64 {
			s := b.EnactStats()
			return read(&s)
		}
	}
	reg.CounterFunc("lrgp_broker_published_total",
		"Messages accepted by the per-flow source rate limiter.",
		flowTotal(func(f *flowState) uint64 { return f.published.Load() }))
	reg.CounterFunc("lrgp_broker_throttled_total",
		"Messages rejected by the per-flow source rate limiter.",
		flowTotal(func(f *flowState) uint64 { return f.throttled.Load() }))
	reg.CounterFunc("lrgp_broker_delivered_total",
		"Per-consumer message deliveries.",
		classTotal(func(c *classCounters) uint64 { return c.delivered.Load() }))
	reg.CounterFunc("lrgp_broker_filtered_total",
		"Messages dropped by consumer filters.",
		classTotal(func(c *classCounters) uint64 { return c.filtered.Load() }))
	reg.CounterFunc("lrgp_broker_thinned_total",
		"Class streams subsampled by a multirate delivery-rate cap.",
		classTotal(func(c *classCounters) uint64 { return c.thinned.Load() }))
	b.fanout = reg.Histogram("lrgp_broker_fanout",
		"Delivery queue depth per accepted publish.", telemetry.FanoutBuckets())
	reg.GaugeFunc("lrgp_broker_consumers_attached",
		"Consumers attached across all classes.",
		population(func(c *classCounters) uint64 { return uint64(c.attached.Load()) }))
	reg.GaugeFunc("lrgp_broker_consumers_admitted",
		"Consumers currently admitted across all classes.",
		population(func(c *classCounters) uint64 { return uint64(c.admitted.Load()) }))
	reg.CounterFunc("lrgp_broker_allocations_total",
		"Optimizer allocations enacted via ApplyAllocation.",
		enact(func(s *EnactStats) uint64 { return s.Applies }))
	reg.CounterFunc("lrgp_broker_work_units_total",
		"Abstract broker work units (routing, transforms, filters, deliveries).",
		b.WorkUnits)
	b.applySeconds = reg.Histogram("lrgp_enact_apply_seconds",
		"Wall time of one broker enact (diff + snapshot publication).", telemetry.DurationBuckets())
	reg.CounterFunc("lrgp_enact_classes_touched_total",
		"Classes whose admitted membership enacts changed.",
		enact(func(s *EnactStats) uint64 { return s.ClassesTouched }))
	reg.CounterFunc("lrgp_enact_flows_touched_total",
		"Flows whose route slice enacts rebuilt.",
		enact(func(s *EnactStats) uint64 { return s.FlowsTouched }))
	reg.CounterFunc("lrgp_enact_rates_changed_total",
		"Per-flow token-bucket re-ratings performed by enacts.",
		enact(func(s *EnactStats) uint64 { return s.RatesChanged }))
	const builds = "Broker enacts by route-snapshot build outcome."
	reg.CounterFunc("lrgp_enact_route_builds_total", builds,
		enact(func(s *EnactStats) uint64 { return s.RouteNoops }),
		telemetry.Label{Key: "mode", Value: "noop"})
	reg.CounterFunc("lrgp_enact_route_builds_total", builds,
		enact(func(s *EnactStats) uint64 { return s.RouteIncrementals }),
		telemetry.Label{Key: "mode", Value: "incremental"})
}

// New builds a broker for the problem. Flows start rate-limited at their
// minimum rates with no admitted consumers; call ApplyAllocation to enact
// an optimizer result.
func New(p *model.Problem, opts ...Option) (*Broker, error) {
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	b := &Broker{
		p:             p,
		now:           time.Now,
		flows:         make([]flowState, len(p.Flows)),
		classes:       make([]classState, len(p.Classes)),
		classBits:     uint(bits.Len(uint(len(p.Classes)))),
		flowMark:      make([]uint64, len(p.Flows)),
		enactedRates:  make([]float64, len(p.Flows)),
		attachedCount: make([]int32, len(p.Classes)),
		admittedCount: make([]int32, len(p.Classes)),
	}
	b.classOff, b.classIDs = flowClasses(p)
	for j := range b.classes {
		b.classes[j].transform = Identity{}
	}
	for _, opt := range opts {
		opt.apply(b)
	}
	if b.reg != nil {
		b.registerTelemetry(b.reg)
	}
	start := b.now()
	for i, f := range p.Flows {
		b.flows[i].bucket = NewTokenBucket(f.RateMin, 0, start)
		b.flows[i].setRate(f.RateMin)
		b.enactedRates[i] = f.RateMin
	}
	// Nothing is admitted yet: the table holds no entry, and every
	// classState.route starts nil to match it.
	rt := b.buildRouteTableLocked()
	b.blockMark = make([]uint64, len(rt.blocks))
	b.route.Store(rt)
	return b, nil
}

// flowClasses lays out p's flow → classes incidence as offsets into one
// flat array, each flow's classes in ascending ClassID order (the order
// model.Index.ClassesByFlow gives): a counting sort over the classes.
func flowClasses(p *model.Problem) (off []int32, ids []model.ClassID) {
	off = make([]int32, len(p.Flows)+1)
	for _, c := range p.Classes {
		off[c.Flow+1]++
	}
	for i := range p.Flows {
		off[i+1] += off[i]
	}
	ids = make([]model.ClassID, len(p.Classes))
	next := slices.Clone(off[:len(p.Flows)])
	for _, c := range p.Classes {
		ids[next[c.Flow]] = c.ID
		next[c.Flow]++
	}
	return off, ids
}

// classesOf returns flow i's classes, ascending. The slice is the
// broker's own and must not be mutated.
func (b *Broker) classesOf(i model.FlowID) []model.ClassID {
	return b.classIDs[b.classOff[i]:b.classOff[i+1]]
}

// Problem returns the broker's problem definition.
func (b *Broker) Problem() *model.Problem { return b.p }

// AttachConsumer registers a consumer in a class. The consumer receives
// messages only once admission control admits it (ApplyAllocation). A nil
// filter matches everything. Filters must be safe for concurrent use and
// must treat the message — including its Attrs map — as read-only.
func (b *Broker) AttachConsumer(class model.ClassID, filter Filter, h Handler) (ConsumerID, error) {
	if class < 0 || int(class) >= len(b.p.Classes) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownClass, class)
	}
	if _, all := filter.(MatchAll); all {
		filter = nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nextSeq > math.MaxInt64>>b.classBits {
		return 0, ErrConsumerIDsExhausted
	}
	id := ConsumerID(b.nextSeq<<b.classBits | int64(class))
	b.nextSeq++
	cs := &b.classes[class]
	if len(cs.handlers) == cap(cs.handlers) {
		// The append below moves to a fresh array no snapshot has seen.
		cs.published = 0
	}
	cs.handlers = append(cs.handlers, h)
	if filter != nil || cs.filters != nil {
		if cap(cs.filters) != cap(cs.handlers) {
			// The class's first filter, or handlers just moved: filters
			// follow into a fresh array of the same capacity.
			fresh := make([]Filter, len(cs.handlers)-1, cap(cs.handlers))
			copy(fresh, cs.filters)
			cs.filters = fresh
		}
		cs.filters = append(cs.filters, filter)
	}
	cs.ids = append(cs.ids, id)
	cs.counters.attached.Add(1)
	b.attachedCount[class]++
	return id, nil
}

// findLocked returns the class an ID names and the consumer's index in it,
// or ErrUnknownConsumer when this broker holds no such consumer: a
// negative ID, class bits past the class count, or a sequence the class
// does not hold (never issued, issued to another class, or detached).
// Callers must hold b.mu.
func (b *Broker) findLocked(id ConsumerID) (*classState, model.ClassID, int, error) {
	class := model.ClassID(id & (1<<b.classBits - 1))
	if id >= 0 && int(class) < len(b.classes) {
		cs := &b.classes[class]
		if k, ok := slices.BinarySearch(cs.ids, id); ok {
			return cs, class, k, nil
		}
	}
	return nil, 0, 0, fmt.Errorf("%w: %d", ErrUnknownConsumer, id)
}

// attachedCounts copies every class's attached-consumer count into dst
// (reused when its capacity suffices) and returns it: the autopilot's
// demand read, one dense copy under b.mu, which publishers never take.
func (b *Broker) attachedCounts(dst []int32) []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append(dst[:0], b.attachedCount...)
}

// DetachConsumer removes a consumer entirely. In-flight publishes that
// loaded the routing snapshot before the detach may still deliver to the
// consumer's handler.
func (b *Broker) DetachConsumer(id ConsumerID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	cs, class, k, err := b.findLocked(id)
	if err != nil {
		return err
	}
	start := b.enactStartNanos()
	classes := 0
	cs.removeAt(k)
	cs.counters.attached.Add(-1)
	b.attachedCount[class]--
	if k < cs.admitted {
		cs.admitted--
		cs.counters.admitted.Add(-1)
		b.admittedCount[class]--
		// Only an admitted consumer is visible to the data plane; its
		// departure dirties exactly its class's flow. Detaching a
		// never-admitted consumer (the common case in attach/detach
		// storms) publishes nothing.
		b.dirtyClasses = append(b.dirtyClasses, class)
		classes = 1
	}
	b.observeEnactLocked(start, classes, b.republishLocked(), 0)
	return nil
}

// ApplyAllocation enacts an optimizer allocation: flow token buckets are
// re-rated and each class admits (or unadmits) consumers to match n_j.
// Admission is capped by the number of attached consumers; earlier
// attachments are admitted first and the latest admitted are unadmitted
// first when shrinking. The change becomes visible to publishers as one
// atomic snapshot swap. An allocation of the wrong shape, or holding a
// rate a token bucket cannot run at (ErrBadRate), is refused before
// anything changes.
//
// The enact cost is proportional to the delta, not to broker size: flows
// whose rate is unchanged keep their token buckets untouched, classes
// whose admitted count is unchanged are skipped entirely, a class whose
// count moved only stores the new count (admission is position in attach
// order, so no consumer is touched) and its entry re-slices the class's
// arrays instead of copying them, and the new snapshot shares every clean
// class's entry and every clean flow's entry list with its predecessor
// (see enact.go). An allocation identical to the enacted one publishes no
// snapshot at all. What does grow with the broker is the diff itself, one
// pass over the dense enacted arrays under mu.
func (b *Broker) ApplyAllocation(a model.Allocation) error {
	if len(a.Rates) != len(b.p.Flows) || len(a.Consumers) != len(b.p.Classes) {
		return fmt.Errorf("broker: allocation shape %d/%d, want %d/%d",
			len(a.Rates), len(a.Consumers), len(b.p.Flows), len(b.p.Classes))
	}
	for i, r := range a.Rates {
		// A NaN refill rate makes the bucket's token count NaN, after which
		// it admits everything and no later rate repairs it.
		if !(r >= 0 && r <= math.MaxFloat64) {
			return fmt.Errorf("%w: flow %d rate %g", ErrBadRate, i, r)
		}
	}
	now := b.now()
	start := b.enactStartNanos()
	b.mu.Lock()
	defer b.mu.Unlock()
	rates := 0
	for i, r := range a.Rates {
		if b.enactedRates[i] == r {
			// Skipping a same-rate SetRate is also what keeps re-enacts
			// transcript-identical: token-bucket refill is associative (a
			// min-clamped linear ramp), so not touching the bucket leaves
			// every future admission decision bit-identical.
			continue
		}
		f := &b.flows[i]
		f.bucket.SetRate(r, now)
		f.setRate(r)
		b.enactedRates[i] = r
		rates++
	}
	classes := 0
	for j, want := range a.Consumers {
		want = min(max(want, 0), int(b.attachedCount[j]))
		if want == int(b.admittedCount[j]) {
			// The admitted set is always the first cs.admitted consumers in
			// attach order (attach appends unadmitted, detach keeps the
			// order), so an equal count means identical membership.
			continue
		}
		cs := &b.classes[j]
		cs.admitted = want
		cs.counters.admitted.Store(int64(want))
		b.admittedCount[j] = int32(want)
		b.dirtyClasses = append(b.dirtyClasses, model.ClassID(j))
		classes++
	}
	b.enactStats.Applies++
	if classes == 0 && rates == 0 {
		b.enactStats.NoopApplies++
	}
	b.observeEnactLocked(start, classes, b.republishLocked(), rates)
	return nil
}

// Publish injects a message into a flow. It applies the source rate limit,
// then delivers to every admitted consumer of every class of the flow,
// applying the class transform and each consumer's filter. It returns
// ErrThrottled when the rate limiter rejects the message.
//
// Each class takes one of two loops, chosen by whether its entry carries
// a filters array: a class without one only calls its handlers, and only
// the loop of a class with one evaluates filters. Both count the same
// work per consumer.
//
// Publish is the broker's lock-free fast path: it reads the routing
// snapshot through an atomic pointer and touches only its own flow's
// sharded state, so concurrent publishes on distinct flows never contend.
// When the class transform is Identity the message is delivered carrying
// the caller's attrs map itself — no copy is made, and the whole path
// performs no allocations. Callers and consumers must therefore treat
// attrs as immutable once published.
func (b *Broker) Publish(flow model.FlowID, attrs map[string]float64, body string) error {
	if flow < 0 || int(flow) >= len(b.flows) {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	now := b.now()
	f := &b.flows[flow]
	if !f.bucket.Allow(now) {
		f.throttled.Add(1)
		return ErrThrottled
	}
	f.published.Add(1)
	msg := Message{
		Flow:  flow,
		Seq:   f.seq.Add(1),
		Time:  now,
		Attrs: attrs,
		Body:  body,
	}

	work := uint64(1) // per-message routing work
	delivered := 0
	routes := b.route.Load().flowRoutes(flow)
	for ri := range routes {
		cr := routes[ri]
		if cr.thinner != nil && !cr.thinner.Allow(now) {
			cr.counters.thinned.Add(1)
			continue
		}
		classMsg := msg
		if !cr.identity {
			// Only a mutating transform gets (and pays for) a private
			// copy of the attribute map.
			classMsg.Attrs = cloneAttrs(attrs)
			classMsg = cr.transform.Apply(classMsg)
		}
		work++ // per-class transform work
		var classDelivered, classFiltered uint64
		if filters := cr.filters; filters == nil {
			// No consumer of the class filters, so every one is delivered:
			// the loop only calls handlers, and the counts are set once.
			deliverAll(cr.handlers, classMsg)
			classDelivered = uint64(len(cr.handlers))
			work += 2 * classDelivered // per-consumer filter evaluation (MatchAll, never called) and delivery
		} else {
			for ci, h := range cr.handlers {
				work++ // per-consumer filter evaluation, counted when MatchAll skips the call
				if filters[ci] != nil && !filters[ci].Match(classMsg) {
					classFiltered++
					continue
				}
				work++ // per-consumer delivery
				classDelivered++
				if h != nil {
					h(classMsg)
				}
			}
		}
		if classDelivered != 0 {
			cr.counters.delivered.Add(classDelivered)
		}
		if classFiltered != 0 {
			cr.counters.filtered.Add(classFiltered)
		}
		delivered += int(classDelivered)
	}
	f.work.Add(work)
	if b.fanout != nil {
		b.fanout.Observe(float64(delivered))
	}
	return nil
}

// deliverAll is the unfiltered class's loop: it calls every non-nil
// handler with m, in order. It stays out of line on purpose: inlined into
// Publish, the loop reloads Publish's own live values from the stack
// after every handler call, and BenchmarkPublishUnfiltered took 6.6 ns
// per delivery instead of 4.6 (medians of 12 alternating runs, -cpu 1,
// 2-vCPU x86-64 host).
//
//go:noinline
func deliverAll(handlers []Handler, m Message) {
	for _, h := range handlers {
		if h != nil {
			h(m)
		}
	}
}

// WorkUnits returns the cumulative abstract work counter (see the field
// comment on Broker.flows): deterministic across runs for identical
// serial publish sequences, and an exact interleaving-order-free total
// under concurrent publishing. Sums the per-flow atomic shards — never
// blocks the data plane (while publishers are running the sum may
// straddle in-flight messages, like any multi-counter scrape).
func (b *Broker) WorkUnits() uint64 {
	var total uint64
	for i := range b.flows {
		total += b.flows[i].work.Load()
	}
	return total
}

// FlowStats returns the publish-side counters of a flow. Served from
// atomics: scraping never stalls publishers.
func (b *Broker) FlowStats(flow model.FlowID) (FlowStats, error) {
	if flow < 0 || int(flow) >= len(b.flows) {
		return FlowStats{}, fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	f := &b.flows[flow]
	return FlowStats{
		Published: f.published.Load(),
		Throttled: f.throttled.Load(),
		Rate:      f.rate(),
	}, nil
}

// ClassStats returns the delivery-side counters of a class. Served from
// atomics: scraping never stalls publishers. Under concurrent publishing
// the fields are individually exact but not a single atomic snapshot.
func (b *Broker) ClassStats(class model.ClassID) (ClassStats, error) {
	if class < 0 || int(class) >= len(b.p.Classes) {
		return ClassStats{}, fmt.Errorf("%w: %d", ErrUnknownClass, class)
	}
	cc := &b.classes[class].counters
	return ClassStats{
		Attached:  int(cc.attached.Load()),
		Admitted:  int(cc.admitted.Load()),
		Delivered: cc.delivered.Load(),
		Filtered:  cc.filtered.Load(),
		Thinned:   cc.thinned.Load(),
	}, nil
}

// SetClassRateCap installs (or, with rate <= 0, removes) a delivery-rate
// cap for one class, thinning its stream below the flow's source rate.
// This is the enactment hook for multirate extensions: different classes
// of the same flow can receive different effective rates. A NaN or +Inf
// cap is refused with ErrBadRate before anything changes: a bucket
// refilled at either holds NaN or infinite tokens and thins nothing.
func (b *Broker) SetClassRateCap(class model.ClassID, rate float64) error {
	if class < 0 || int(class) >= len(b.p.Classes) {
		return fmt.Errorf("%w: %d", ErrUnknownClass, class)
	}
	if math.IsNaN(rate) || math.IsInf(rate, 1) {
		return fmt.Errorf("%w: class %d cap %g", ErrBadRate, class, rate)
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	cs := &b.classes[class]
	switch {
	case rate <= 0:
		if cs.thinner == nil {
			// Removing a cap that was never installed changes nothing.
			return nil
		}
		cs.thinner = nil
	case cs.thinner != nil:
		// Re-rating mutates the shared bucket in place; live snapshots
		// pick the new rate up immediately, no rebuild needed.
		cs.thinner.SetRate(rate, now)
		return nil
	default:
		cs.thinner = NewTokenBucket(rate, 0, now)
	}
	// Installing or removing the bucket changes the class's routing
	// entry — republish just it.
	start := b.enactStartNanos()
	b.dirtyClasses = append(b.dirtyClasses, class)
	b.observeEnactLocked(start, 1, b.republishLocked(), 0)
	return nil
}
