// Package telemetry is the repository's dependency-free observability
// library: a metrics registry of atomic counters, gauges, lock-free
// fixed-bucket histograms and func-backed counters and gauges rendered in
// the Prometheus text exposition format, a structured JSONL
// iteration-trace sink, and an HTTP mux exposing /metrics,
// /debug/pprof/*, /debug/vars and /snapshot. It knows no layer: the
// engine, the distributed runtime and the broker each register their own
// families on a Registry they are handed.
//
// Design constraints (see DESIGN.md §6):
//
//   - Zero overhead when disabled: a layer handed no registry builds no
//     instruments, so its hot paths pay one nil check and allocate
//     nothing.
//   - Counted once: a component that already keeps a count (the broker's
//     stats, the autopilot's, the transport's) exports it through
//     CounterFunc or GaugeFunc, read when scraped, instead of feeding a
//     second copy as it goes.
//   - Lock-free when enabled: observations are atomic adds and CAS loops
//     on preallocated state; no observation path takes a lock or
//     allocates, so instrumented Step/Publish stay 0 allocs/op.
//   - Stdlib only: no Prometheus client dependency; the registry renders
//     the text format directly.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric at
// registration time (e.g. stage="rate").
type Label struct {
	Key   string
	Value string
}

// kind discriminates the metric types for rendering and duplicate checks.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
	counterFuncKind
	gaugeFuncKind
)

// String names the kind in a mismatch panic: a func-backed metric and an
// atomic one are different kinds even where they render the same TYPE.
func (k kind) String() string {
	return [...]string{"counter", "gauge", "histogram", "counter func", "gauge func"}[k]
}

// typ is the kind's exposition TYPE: a func-backed metric renders as the
// counter or gauge it is.
func (k kind) typ() string { return strings.TrimSuffix(k.String(), " func") }

// entry is one registered metric: family name, preformatted label string
// (`k1="v1",k2="v2"` or empty) and the collector itself. Every counter and
// gauge is read through cf or gf, which an atomic one points at its own
// Value, so rendering has one path per TYPE.
type entry struct {
	name   string
	labels string
	help   string
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() uint64
	gf     func() float64
}

// Registry holds an ordered set of metrics. Registration takes a lock;
// observation on the returned metrics is lock-free. Registering the same
// name+labels twice returns the existing metric (idempotent) as long as
// the kind matches, and panics otherwise — duplicate registration with a
// different type is a programming error, not a runtime condition. The
// func kinds follow the same rule: a second CounterFunc or GaugeFunc under
// a registered name+labels is ignored, so the series keeps reading the
// first function it was given.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byKey   map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// formatLabels renders labels as `k1="v1",k2="v2"`, sorted by key so the
// registration key and the exposition output are deterministic.
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register returns the entry for name+labels, creating it with mk on
// first registration.
func (r *Registry) register(name, help string, k kind, labels []Label, mk func(e *entry)) *entry {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	ls := formatLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s, was %s", key, k, e.kind))
		}
		return e
	}
	e := &entry{name: name, labels: ls, help: help, kind: k}
	mk(e)
	r.entries = append(r.entries, e)
	r.byKey[key] = e
	return e
}

// Counter registers (or returns the existing) monotonically increasing
// counter under name with the given constant labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, counterKind, labels, func(e *entry) {
		e.c = &Counter{}
		e.cf = e.c.Value
	}).c
}

// Gauge registers (or returns the existing) float64 gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, gaugeKind, labels, func(e *entry) {
		e.g = &Gauge{}
		e.gf = e.g.Value
	}).g
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// buckets are ascending upper bounds; the implicit +Inf bucket is added
// automatically. The bucket layout is fixed at registration, which is
// what keeps Observe lock-free.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.register(name, help, histogramKind, labels, func(e *entry) { e.h = newHistogram(buckets) }).h
}

// CounterFunc registers a counter whose value is f's result, read when
// the registry is rendered (WritePrometheus, Snapshot) and never on
// registration. f must be safe for concurrent use and never decrease; it
// runs outside the registry's lock, on the scraper's goroutine. A second
// registration of name+labels keeps the first f.
func (r *Registry) CounterFunc(name, help string, f func() uint64, labels ...Label) {
	r.register(name, help, counterFuncKind, labels, func(e *entry) { e.cf = f })
}

// GaugeFunc registers a gauge whose value is f's result, read like
// CounterFunc's.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.register(name, help, gaugeFuncKind, labels, func(e *entry) { e.gf = f })
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). HELP/TYPE headers are emitted once
// per metric family, on the family's first registered entry. Func-backed
// metrics are evaluated here, after the registry's lock is released.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	// The exposition format requires every sample of a family to appear
	// as one contiguous group, so render family by family in first-seen
	// order rather than raw registration order.
	var families []string
	byFamily := make(map[string][]*entry, len(entries))
	for _, e := range entries {
		if _, ok := byFamily[e.name]; !ok {
			families = append(families, e.name)
		}
		byFamily[e.name] = append(byFamily[e.name], e)
	}

	bw := bufio.NewWriter(w)
	for _, name := range families {
		group := byFamily[name]
		fmt.Fprintf(bw, "# HELP %s %s\n", name, group[0].help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, group[0].kind.typ())
		for _, e := range group {
			switch e.kind {
			case counterKind, counterFuncKind:
				writeSample(bw, e.name, e.labels, "", float64(e.cf()))
			case gaugeKind, gaugeFuncKind:
				writeSample(bw, e.name, e.labels, "", e.gf())
			case histogramKind:
				e.h.writePrometheus(bw, e.name, e.labels)
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels,extra} value` line; either label
// part may be empty.
func writeSample(w io.Writer, name, labels, extra string, v float64) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, extra, formatValue(v))
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
	default:
		fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, formatValue(v))
	}
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trippable decimal, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

// Snapshot returns a point-in-time view of every metric keyed by
// name{labels}: counters as uint64, gauges as float64, histograms as
// {count, sum} maps; func-backed metrics are evaluated like counters and
// gauges. It backs the /debug/vars expvar export and tests.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	out := make(map[string]any, len(entries))
	for _, e := range entries {
		key := e.name
		if e.labels != "" {
			key += "{" + e.labels + "}"
		}
		switch e.kind {
		case counterKind, counterFuncKind:
			out[key] = e.cf()
		case gaugeKind, gaugeFuncKind:
			out[key] = e.gf()
		case histogramKind:
			count, sum := e.h.CountSum()
			out[key] = map[string]any{"count": count, "sum": sum}
		}
	}
	return out
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
