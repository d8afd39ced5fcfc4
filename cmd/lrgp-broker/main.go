// Command lrgp-broker demonstrates the full stack end to end: the LRGP
// optimizer computes an allocation — either colocated (the synchronous
// core.Engine, the default) or as a distributed cluster of
// message-passing agents over an in-memory or TCP transport — and the
// allocation is enacted by the event broker (token-bucket rate limits at
// flow sources, admission control on consumers) while synthetic
// producers publish traffic.
//
// With -telemetry-addr the process exposes its observability surface
// over HTTP: Prometheus /metrics (engine stage timings, broker message
// counters), /debug/pprof/*, /debug/vars and a /snapshot JSON view of
// the optimizer state. See README.md "Observability".
//
// Usage:
//
//	lrgp-broker [-optimizer colocated|dist] [-transport memory|tcp]
//	            [-rounds 120] [-publish-seconds 2]
//	            [-producers 1] [-telemetry-addr :9090] [-trace-out run.jsonl]
//	            [-dist-hosts 0] [-dist-staleness 0] [-dist-events events.jsonl]
//	            [-dist-stall-timeout 0] [-autopilot] [-autopilot-seconds 5]
//	            [-autopilot-interval 50ms] [-churn storm,flash,diurnal]
//
// -trace-out records a JSONL iteration trace (one
// telemetry.IterationRecord per line): the full per-iteration optimizer
// state for colocated runs, and the per-round utility series for dist
// runs. -dist-events dumps the distributed runtime's flight-recorder
// event log after the run (analyze with lrgp-trace); if the cluster
// stalls, the post-mortem dump lands in the same file.
// -dist-stall-timeout arms the stall detector: if the collector makes
// no progress for that long while rounds are pending, the stall is
// counted (lrgp_dist_stalls_total) and every agent's ring is dumped to
// the -dist-events file as a post-mortem.
//
// -autopilot replaces the solve-once-then-publish flow entirely: a
// broker.Autopilot re-optimizes continuously (every -autopilot-interval)
// from live demand while churn drivers (-churn, comma-separated from
// storm, flash, diurnal) attach and detach consumers and producers
// publish against the enacted rates for -autopilot-seconds. Enactment
// goes through the broker's incremental route path; with -telemetry-addr
// the lrgp_enact_* family (apply latency, route-build modes, enacted vs
// skipped cycles, allocation delta, oscillation) is scrapeable on
// /metrics throughout the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrgp-broker:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrgp-broker", flag.ContinueOnError)
	var (
		optimizer     = fs.String("optimizer", "colocated", "optimizer formulation: colocated (synchronous engine) or dist (message-passing agents)")
		transportName = fs.String("transport", "memory", "transport for -optimizer dist: memory or tcp")
		distHosts     = fs.Int("dist-hosts", 0, "hosts the -optimizer dist node agents are spread over; agents sharing a host exchange nothing over the transport (0 = one per node)")
		distStaleness = fs.Int("dist-staleness", 0, "bounded-staleness K for -optimizer dist rounds (0 = synchronous barrier)")
		distEvents    = fs.String("dist-events", "", "write the -optimizer dist flight-recorder event log (JSONL, lrgp-trace input) to this file; a stall post-mortem lands here too")
		distStall     = fs.Duration("dist-stall-timeout", 0, "arm the dist stall detector: count a stall and dump a post-mortem after this long without collector progress (0 disables)")
		traceOut      = fs.String("trace-out", "", "record a JSONL iteration trace (telemetry.IterationRecord per iteration or round) to this file")
		rounds        = fs.Int("rounds", 120, "LRGP iterations (colocated) or synchronous rounds (dist)")
		pubSeconds    = fs.Float64("publish-seconds", 2, "how long to publish synthetic traffic")
		producersN    = fs.Int("producers", 1, "concurrent producer goroutines generating the synthetic traffic (flows are spread round-robin; several producers may share a flow)")
		telemetryAddr = fs.String("telemetry-addr", "", "serve /metrics, /debug/pprof, /debug/vars and /snapshot on this address (e.g. :9090); empty disables")
		autopilot     = fs.Bool("autopilot", false, "run the continuous re-optimization loop under synthetic churn instead of the solve-once demo (colocated only)")
		apSeconds     = fs.Float64("autopilot-seconds", 5, "how long the -autopilot scenario runs")
		apInterval    = fs.Duration("autopilot-interval", 50*time.Millisecond, "re-optimization cycle interval for -autopilot")
		churnSpec     = fs.String("churn", "storm,flash,diurnal", "comma-separated churn drivers for -autopilot: storm, flash, diurnal")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every flag is checked before anything starts; a bad value is refused
	// with an error that names its flag.
	switch {
	case *optimizer != "colocated" && *optimizer != "dist":
		return fmt.Errorf("-optimizer: unknown optimizer %q; want colocated or dist", *optimizer)
	case *transportName != "memory" && *transportName != "tcp":
		return fmt.Errorf("-transport: unknown transport %q; want memory or tcp", *transportName)
	case *rounds < 1:
		return fmt.Errorf("-rounds: %d; want at least 1", *rounds)
	case !(*pubSeconds >= 0):
		return fmt.Errorf("-publish-seconds: %g; want 0 or more", *pubSeconds)
	case *producersN < 1:
		return fmt.Errorf("-producers: %d; want at least 1", *producersN)
	case *distHosts < 0:
		return fmt.Errorf("-dist-hosts: %d; want 0 (one per node) or more", *distHosts)
	case *distStaleness < 0:
		return fmt.Errorf("-dist-staleness: %d; want 0 or more", *distStaleness)
	case *distStall < 0:
		return fmt.Errorf("-dist-stall-timeout: %v; want 0 (off) or more", *distStall)
	case *autopilot && *optimizer != "colocated":
		return fmt.Errorf("-autopilot requires -optimizer colocated (the dist formulation has no live re-optimization loop yet)")
	case !(*apSeconds >= 0):
		return fmt.Errorf("-autopilot-seconds: %g; want 0 or more", *apSeconds)
	case *apInterval <= 0:
		return fmt.Errorf("-autopilot-interval: %v; want a positive interval", *apInterval)
	}
	drivers, err := churnDrivers(*churnSpec)
	if err != nil {
		return err
	}

	p := workload.Base()

	// Telemetry is wired before any optimization so a scraper attached
	// at startup observes the whole run; the broker registers its own
	// metrics on reg when it is built. The registry and handles stay nil
	// without -telemetry-addr, which disables instrumentation entirely.
	var (
		reg  *telemetry.Registry
		em   *telemetry.EngineMetrics
		dm   *telemetry.DistMetrics
		snap atomic.Pointer[core.Snapshot]
	)
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
		em = telemetry.NewEngineMetrics(reg)
		if *optimizer == "dist" {
			dm = telemetry.NewDistMetrics(reg)
		}
		mux := telemetry.NewMux(reg, func() (any, bool) {
			s := snap.Load()
			if s == nil {
				return nil, false
			}
			return s, true
		})
		srv, err := telemetry.ListenAndServe(*telemetryAddr, mux)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "telemetry: listening on http://%s (/metrics /snapshot /debug/pprof /debug/vars)\n", srv.Addr)
	}

	if *autopilot {
		return runAutopilot(out, p, reg, *apSeconds, *apInterval, *churnSpec, drivers)
	}

	// -trace-out: one JSONL IterationRecord per optimizer step.
	var tw *telemetry.TraceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tw = telemetry.NewTraceWriter(f)
		defer tw.Flush()
	}

	var alloc model.Allocation
	start := time.Now()
	switch *optimizer {
	case "colocated":
		fmt.Fprintf(out, "optimizing %s with the colocated engine...\n", p.Name)
		e, err := core.NewEngine(p, core.Config{Adaptive: true, Telemetry: em})
		if err != nil {
			return err
		}
		res, err := e.SolveTraced(*rounds, tw)
		if err != nil {
			return err
		}
		s := e.Snapshot()
		snap.Store(&s)
		alloc = res.Allocation
		converged := "not converged"
		if res.Converged {
			converged = fmt.Sprintf("converged at %d", res.ConvergedAt)
		}
		fmt.Fprintf(out, "  %d iterations in %v, final utility %.0f (%s)\n",
			res.Iterations, time.Since(start).Round(time.Millisecond), res.Utility, converged)
		e.Close()
	case "dist":
		var net transport.Network
		if *transportName == "tcp" {
			net = transport.NewTCP()
		} else {
			net = transport.NewMemory()
		}
		defer net.Close()

		fmt.Fprintf(out, "optimizing %s over %s transport (%d agents, K=%d)...\n",
			p.Name, *transportName, len(p.Flows)+len(p.Nodes), *distStaleness)
		cfg := dist.Config{
			Core:         core.Config{Adaptive: true},
			Hosts:        *distHosts,
			Staleness:    *distStaleness,
			Telemetry:    dm,
			StallTimeout: *distStall,
		}
		var evFile *os.File
		if *distEvents != "" {
			f, err := os.Create(*distEvents)
			if err != nil {
				return err
			}
			defer f.Close()
			evFile = f
			cfg.Postmortem = f
		}
		cl, err := dist.New(p, cfg, net)
		if err != nil {
			return err
		}
		defer cl.Close()
		stats, err := cl.Run(*rounds, 2*time.Minute)
		if err != nil {
			return err
		}
		alloc = cl.Allocation()
		if tw != nil {
			for _, s := range stats {
				if werr := tw.Write(&telemetry.IterationRecord{Iteration: s.Round, Utility: s.Utility}); werr != nil {
					return werr
				}
			}
		}
		// Mirror the transport's traffic counters into the lrgp_dist_net
		// gauges so a scraper sees frames, bytes and drops — on the wire
		// and at the agents' inboxes.
		if dm != nil {
			if m, ok := net.(transport.Meter); ok {
				st := m.NetStats()
				dm.ObserveNet(st.Delivered, st.Bytes, st.Dropped+cl.Traffic().Dropped)
			}
		}
		if evFile != nil {
			if err := cl.WriteEvents(evFile); err != nil {
				return err
			}
			fmt.Fprintf(out, "  flight recorder: event log written to %s\n", *distEvents)
		}
		fmt.Fprintf(out, "  %d rounds in %v, final utility %.0f\n",
			len(stats), time.Since(start).Round(time.Millisecond), stats[len(stats)-1].Utility)
	}

	// Stand up the broker, attach the full demand, enact the allocation.
	b, err := broker.New(p, broker.WithTelemetry(reg))
	if err != nil {
		return err
	}
	// Handlers run concurrently once -producers > 1, so the demo's own
	// receipt counters must be atomic like any real consumer's.
	delivered := make([]atomic.Uint64, len(p.Classes))
	for j, c := range p.Classes {
		j := j
		for k := 0; k < c.MaxConsumers; k++ {
			if _, err := b.AttachConsumer(model.ClassID(j), nil, func(broker.Message) {
				delivered[j].Add(1)
			}); err != nil {
				return err
			}
		}
	}
	if err := b.ApplyAllocation(alloc); err != nil {
		return err
	}
	fmt.Fprintf(out, "enacted allocation into broker (%d consumers attached)\n", totalAttached(p))

	// Publish at each flow's allocated rate for a while, spread over
	// -producers concurrent goroutines driving the broker's lock-free
	// publish path; the token buckets should admit nearly everything,
	// and over-publish should be throttled. Flows are assigned round-
	// robin; when producers outnumber flows, the sharers split their
	// flow's target rate so the aggregate offered load is unchanged.
	nProd := *producersN
	fmt.Fprintf(out, "publishing for %.1fs at allocated rates with %d concurrent producers (plus 2x over-publish on flow 0)...\n",
		*pubSeconds, nProd)
	assigned := make([][]model.FlowID, nProd)
	share := make([]float64, len(p.Flows))
	if nProd >= len(p.Flows) {
		for g := 0; g < nProd; g++ {
			i := g % len(p.Flows)
			assigned[g] = []model.FlowID{model.FlowID(i)}
			share[i]++
		}
	} else {
		for i := range p.Flows {
			g := i % nProd
			assigned[g] = append(assigned[g], model.FlowID(i))
			share[i] = 1
		}
	}
	deadline := time.Now().Add(time.Duration(*pubSeconds * float64(time.Second)))
	var wg sync.WaitGroup
	producers := make([][]*broker.Producer, nProd)
	for g := 0; g < nProd; g++ {
		producers[g] = make([]*broker.Producer, len(assigned[g]))
		for k, flow := range assigned[g] {
			pr, err := b.RegisterProducer(flow)
			if err != nil {
				return err
			}
			producers[g][k] = pr
		}
		wg.Add(1)
		go func(flows []model.FlowID, prs []*broker.Producer) {
			defer wg.Done()
			attrs := map[string]float64{"price": 80} // read-only once published
			next := make([]time.Time, len(flows))
			for time.Now().Before(deadline) {
				now := time.Now()
				for k, i := range flows {
					rate := alloc.Rates[i] / share[i]
					if i == 0 {
						rate *= 2 // deliberately exceed flow 0's allocation
					}
					if rate <= 0 || now.Before(next[k]) {
						continue
					}
					_ = prs[k].Publish(attrs, "tick")
					next[k] = now.Add(time.Duration(float64(time.Second) / rate))
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(assigned[g], producers[g])
	}
	wg.Wait()
	var prodPublished, prodThrottled uint64
	for g := range producers {
		for _, pr := range producers[g] {
			st := pr.Stats()
			prodPublished += st.Published
			prodThrottled += st.Throttled
		}
	}
	fmt.Fprintf(out, "producer path: %d goroutines published=%d throttled=%d\n",
		nProd, prodPublished, prodThrottled)

	fmt.Fprintln(out, "\nflow        rate      published  throttled")
	for i := range p.Flows {
		fs, err := b.FlowStats(model.FlowID(i))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-10s  %8.1f  %9d  %9d\n", p.Flows[i].Name, fs.Rate, fs.Published, fs.Throttled)
	}
	fmt.Fprintln(out, "\nclass       admitted/attached   delivered")
	for j := range p.Classes {
		cs, err := b.ClassStats(model.ClassID(j))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-10s  %8d/%-8d   %9d\n", p.Classes[j].Name, cs.Admitted, cs.Attached, cs.Delivered)
	}
	return nil
}

func totalAttached(p *model.Problem) int {
	n := 0
	for _, c := range p.Classes {
		n += c.MaxConsumers
	}
	return n
}

// runAutopilot is the -autopilot scenario: a broker.Autopilot re-solves
// continuously from live demand while churn drivers attach and detach
// consumers and per-flow producers offer ~1.2x the enacted rates. All
// enactment flows through the broker's incremental route path; the
// summary lines at the end mirror what -telemetry-addr exposes live as
// the lrgp_enact_* family.
func runAutopilot(out io.Writer, p *model.Problem, reg *telemetry.Registry,
	seconds float64, interval time.Duration, churnSpec string, drivers []churnDriver) error {
	b, err := broker.New(p, broker.WithTelemetry(reg))
	if err != nil {
		return err
	}
	// Baseline population: half of each class's configured demand, so the
	// first cycles have something to admit before the churn ramps.
	var deliveredTotal atomic.Uint64
	for j, c := range p.Classes {
		for k := 0; k < c.MaxConsumers/2; k++ {
			if _, err := b.AttachConsumer(model.ClassID(j), nil, func(broker.Message) {
				deliveredTotal.Add(1)
			}); err != nil {
				return err
			}
		}
	}
	ap, err := broker.NewAutopilot(b, broker.AutopilotConfig{Core: core.Config{Adaptive: true}})
	if err != nil {
		return err
	}
	defer ap.Close()

	window := time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(out, "autopilot: re-optimizing %s every %v for %v (churn: %s)\n",
		p.Name, interval, window, churnSpec)

	stop := make(chan struct{})
	errs := make(chan error, 1)
	loopDone := ap.Loop(interval, stop, errs)

	var churnWG sync.WaitGroup
	churnStop := make(chan struct{})
	for _, drive := range drivers {
		churnWG.Add(1)
		go drive(b, p, window, churnStop, &churnWG)
	}

	// Producers: each flow is offered ~1.2x its currently enacted rate
	// (floored so idle flows still generate signal), so the autopilot's
	// offered-rate estimator sees live load and the over-offer exercises
	// throttling.
	var pubWG sync.WaitGroup
	pubStop := make(chan struct{})
	for i := range p.Flows {
		pubWG.Add(1)
		go func(flow model.FlowID) {
			defer pubWG.Done()
			attrs := map[string]float64{"price": 80}
			for {
				select {
				case <-pubStop:
					return
				default:
				}
				fs, err := b.FlowStats(flow)
				if err != nil {
					return
				}
				rate := 1.2 * fs.Rate
				if rate < 50 {
					rate = 50
				}
				// Offer one 5ms slice of the target rate, then sleep it off.
				n := int(rate / 200)
				if n < 1 {
					n = 1
				}
				for k := 0; k < n; k++ {
					_ = b.Publish(flow, attrs, "tick")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(model.FlowID(i))
	}

	time.Sleep(window)
	close(churnStop)
	churnWG.Wait()
	close(pubStop)
	pubWG.Wait()
	close(stop)
	<-loopDone
	var loopErr error
	select {
	case loopErr = <-errs:
	default:
	}

	st := ap.Stats()
	es := b.EnactStats()
	fmt.Fprintf(out, "autopilot: cycles=%d enacted=%d skipped=%d delta=%.4f oscillation=%.3f demand=%d\n",
		st.Cycles, st.Enacted, st.Skipped, st.LastDelta, st.Oscillation, st.DemandConsumers)
	fmt.Fprintf(out, "enact: applies=%d noops=%d route[noop=%d incremental=%d] classes=%d flows=%d rates=%d\n",
		es.Applies, es.NoopApplies, es.RouteNoops, es.RouteIncrementals,
		es.ClassesTouched, es.FlowsTouched, es.RatesChanged)
	var published, throttled uint64
	for i := range p.Flows {
		fs, err := b.FlowStats(model.FlowID(i))
		if err != nil {
			return err
		}
		published += fs.Published
		throttled += fs.Throttled
	}
	fmt.Fprintf(out, "traffic: published=%d throttled=%d delivered=%d work=%d\n",
		published, throttled, deliveredTotal.Load(), b.WorkUnits())
	if st.Cycles == 0 {
		return fmt.Errorf("autopilot completed no cycles in %v", window)
	}
	return loopErr
}

// churnDriver attaches and detaches consumers of b for the scenario's
// window, until stop is closed, then marks wg done.
type churnDriver func(b *broker.Broker, p *model.Problem, window time.Duration, stop <-chan struct{}, wg *sync.WaitGroup)

// churnDrivers parses -churn: comma-separated names from storm, flash and
// diurnal.
func churnDrivers(spec string) ([]churnDriver, error) {
	var drivers []churnDriver
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "storm":
			drivers = append(drivers, stormChurn)
		case "flash":
			drivers = append(drivers, flashChurn)
		case "diurnal":
			drivers = append(drivers, diurnalChurn)
		case "":
		default:
			return nil, fmt.Errorf("-churn: unknown driver %q; want storm, flash or diurnal", name)
		}
	}
	return drivers, nil
}

// stormChurn is the attach/detach storm: short-lived consumers slam a
// random class in bursts, exercising the enact path's storm fast path
// (never-admitted consumers attach and detach without a snapshot swap).
func stormChurn(b *broker.Broker, p *model.Problem, _ time.Duration,
	stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(1))
	ids := make([]broker.ConsumerID, 0, 8)
	for {
		select {
		case <-stop:
			return
		default:
		}
		class := model.ClassID(rng.Intn(len(p.Classes)))
		ids = ids[:0]
		for k := 0; k < 8; k++ {
			id, err := b.AttachConsumer(class, nil, nil)
			if err != nil {
				return
			}
			ids = append(ids, id)
		}
		time.Sleep(2 * time.Millisecond)
		for _, id := range ids {
			_ = b.DetachConsumer(id)
		}
	}
}

// flashChurn is the flash crowd: a third of the way into the window a
// burst of consumers floods the first classes (demand spike), and two
// thirds in they all leave (collapse) — the classic up-then-down the
// oscillation score watches.
func flashChurn(b *broker.Broker, p *model.Problem, window time.Duration,
	stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	var crowd []broker.ConsumerID
	defer func() {
		for _, id := range crowd {
			_ = b.DetachConsumer(id)
		}
	}()
	wait := func(d time.Duration) bool {
		select {
		case <-stop:
			return false
		case <-time.After(d):
			return true
		}
	}
	if !wait(window / 3) {
		return
	}
	for j := 0; j < len(p.Classes) && j < 3; j++ {
		for k := 0; k < 4*p.Classes[j].MaxConsumers; k++ {
			id, err := b.AttachConsumer(model.ClassID(j), nil, nil)
			if err != nil {
				return
			}
			crowd = append(crowd, id)
		}
	}
	if !wait(window / 3) {
		return
	}
	for _, id := range crowd {
		_ = b.DetachConsumer(id)
	}
	crowd = nil
}

// diurnalChurn slowly modulates each class's attached population on a
// phase-shifted sinusoid (two periods over the window), the smooth load
// curve the threshold should mostly absorb without enacting.
func diurnalChurn(b *broker.Broker, p *model.Problem, window time.Duration,
	stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	attached := make([][]broker.ConsumerID, len(p.Classes))
	defer func() {
		for _, ids := range attached {
			for _, id := range ids {
				_ = b.DetachConsumer(id)
			}
		}
	}()
	start := time.Now()
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		phase := 4 * math.Pi * time.Since(start).Seconds() / window.Seconds()
		for j := range p.Classes {
			amp := float64(p.Classes[j].MaxConsumers) / 2
			target := int(amp * (1 + math.Sin(phase+float64(j))) / 2)
			for len(attached[j]) < target {
				id, err := b.AttachConsumer(model.ClassID(j), nil, nil)
				if err != nil {
					return
				}
				attached[j] = append(attached[j], id)
			}
			for len(attached[j]) > target {
				id := attached[j][len(attached[j])-1]
				attached[j] = attached[j][:len(attached[j])-1]
				_ = b.DetachConsumer(id)
			}
		}
	}
}
