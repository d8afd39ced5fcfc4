package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/model"
)

// A workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	// loop says how load is generated, for the README and the printed
	// header: closed or open loop, and how many generator goroutines.
	loop string
	// setup builds the system under test from the seed, recording how
	// long the layers' constructors took into st.
	setup func(seed int64, st setupTimes) (system, error)
}

// A system is one built instance of a workload.
type system interface {
	// measure drives the workload for d and reports what it saw. tr is nil
	// on an untraced phase; on a traced one it receives a span around each
	// call into a layer.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// verify runs the workload's output checks after the last phase and
	// returns utility_ratio.
	verify() (float64, error)
	close()
}

// phase is what one measured stretch of a workload observed.
type phase struct {
	attempted, failed int64
	// rates holds the work done per second in each batch of the phase, in
	// time order, and latency the workload's headline service times in ms;
	// throughput and fastLatency reduce them to the two headline numbers.
	rates   series
	latency series
	proc    procDelta
	// m holds the workload's own and per-layer metrics by name, n the
	// number of samples behind each timing among them.
	m map[string]float64
	n map[string]int
}

// The two headline timings are read off the fast decile of a run, not its
// middle. On a shared 2-vCPU host, interference only ever slows a run
// down, for seconds at a time, and takes a different share of every run;
// over the same ten runs the fast decile moved half as much as the median
// (README.md, Steadiness). It is what the program costs while the host
// leaves it alone. The medians and tails stay reported, unbounded, under
// the workloads' own metric names.
const (
	fastRateQ    = 0.90
	fastLatencyQ = 0.10
)

func (ph *phase) throughput() float64  { return ph.rates.quantile(fastRateQ) }
func (ph *phase) fastLatency() float64 { return ph.latency.quantile(fastLatencyQ) }

func newPhase() *phase {
	return &phase{m: make(map[string]float64), n: make(map[string]int)}
}

// timing records quantile q of s under name, with its sample count.
func (ph *phase) timing(name string, s series, q float64) {
	ph.m[name] = s.quantile(q)
	ph.n[name] = len(s)
}

// setupTimes collects, per per-layer metric name, one sample in ms for
// each set-up of the run.
type setupTimes map[string]series

// timed runs f and records its duration in ms under name.
func (st setupTimes) timed(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	st[name] = append(st[name], float64(time.Since(t0))/1e6)
	return err
}

// validateIndex times model.Validate plus model.NewIndex on p, the part
// of every engine and cluster constructor that model owns.
func (st setupTimes) validateIndex(p *model.Problem) (*model.Index, error) {
	var ix *model.Index
	err := st.timed("model.validate_index_ms", func() error {
		if err := model.Validate(p); err != nil {
			return err
		}
		ix = model.NewIndex(p)
		return nil
	})
	return ix, err
}

// procDelta is what the process used over one phase.
type procDelta struct {
	wall               time.Duration
	cpuS               float64
	mallocs, allocated uint64
	gcPauseMs          float64
}

type procMeter struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startProc() *procMeter {
	pm := &procMeter{cpu: cpuSeconds()}
	runtime.ReadMemStats(&pm.ms)
	pm.t0 = time.Now()
	return pm
}

func (pm *procMeter) stop() procDelta {
	d := procDelta{wall: time.Since(pm.t0), cpuS: cpuSeconds() - pm.cpu}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.mallocs = ms.Mallocs - pm.ms.Mallocs
	d.allocated = ms.TotalAlloc - pm.ms.TotalAlloc
	d.gcPauseMs = float64(ms.PauseTotalNs-pm.ms.PauseTotalNs) / 1e6
	return d
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runOpts says how one run is made.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	// setups is how often the run builds its system at least, and
	// setupBudget how long it keeps building past that, up to three times
	// as often, so that a cheap set-up gets more samples; setup_s is the
	// median, and the last build is the one measured.
	setups      int
	setupBudget time.Duration
	// warmup is driven before the measured phases so that buffers are
	// grown, token buckets drained to their steady level and the
	// optimizer's limit cycle entered.
	warmup time.Duration
}

// The set-up count and warm-up every reported run uses.
const (
	defaultSetups      = 5
	defaultSetupBudget = 2500 * time.Millisecond
	defaultWarmup      = time.Second
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples counts the samples behind each timing metric.
	Samples map[string]int `json:"samples"`
}

// runWorkload builds def's system o.setups times or more, warms the last
// one up, measures it for o.seconds, and verifies its outputs. An untraced
// run yields the end-to-end metrics. A traced run spends the first half of
// its time untraced, as the reference that trace.overhead_ratio and the
// single-workload end-to-end metrics are read from, and the second half
// with spans on, which the per-layer metrics are read from; its spans are
// returned for writing out.
func runWorkload(def workloadDef, o runOpts) (*result, *tracer, error) {
	st := make(setupTimes)
	var (
		sys    system
		setups series
	)
	for k, begin := 0, time.Now(); k < o.setups || k < 3*o.setups && time.Since(begin) < o.setupBudget; k++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		s, err := def.setup(o.seed, st)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
	}
	defer sys.close()
	heap := liveHeapMB()

	if _, err := sys.measure(o.warmup, nil); err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	var (
		ref, ph *phase
		tr      *tracer
		err     error
	)
	if o.traced {
		d /= 2
	}
	if ref, err = sys.measure(d, nil); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", def.name, err)
	}
	ph = ref
	if o.traced {
		tr = newTracer(time.Now())
		if ph, err = sys.measure(d, tr); err != nil {
			return nil, nil, fmt.Errorf("%s: traced: %w", def.name, err)
		}
	}
	ratio, err := sys.verify()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: output check: %w", def.name, err)
	}

	res := &result{
		Workload:  def.name,
		Seed:      o.seed,
		Traced:    o.traced,
		Seconds:   o.seconds,
		Correct:   true,
		Attempted: ref.attempted,
		Failed:    ref.failed,
		Metrics:   make(map[string]metricValue),
		Samples:   make(map[string]int),
	}
	vals := map[string]float64{
		"setup_s":          setups.median(),
		"heap_mb":          heap,
		"throughput_per_s": ref.throughput(),
		"latency_ms_p10":   ref.fastLatency(),
		"utility_ratio":    ratio,
	}
	res.Samples["setup_s"] = len(setups)
	res.Samples["throughput_per_s"] = len(ref.rates)
	res.Samples["latency_ms_p10"] = len(ref.latency)
	// The single-workload end-to-end metrics come from the untraced
	// phase, the layer metrics from the traced one where there is one.
	for k, v := range ph.m {
		vals[k] = v
		res.Samples[k] = ph.n[k]
	}
	if o.traced {
		for k, v := range ref.m {
			if !isLayerMetric(k) {
				vals[k] = v
				res.Samples[k] = ref.n[k]
			}
		}
	}
	for name, s := range st {
		vals[name] = s.median()
		res.Samples[name] = len(s)
	}
	if o.traced {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		vals["proc.cpu_s"] = ph.proc.cpuS
		vals["proc.alloc_mb_per_s"] = float64(ph.proc.allocated) / 1e6 / ph.proc.wall.Seconds()
		vals["proc.gc_pause_ms"] = ph.proc.gcPauseMs
		if base := ref.throughput(); base > 0 {
			vals["trace.overhead_ratio"] = ph.throughput() / base
		}
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	for _, md := range defs {
		res.Metrics[md.Name] = metricValue{Value: vals[md.Name], Unit: md.Unit}
	}
	return res, tr, nil
}

// isLayerMetric reports whether a metric name carries a module prefix.
func isLayerMetric(name string) bool { return strings.Contains(name, ".") }
