package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/telemetry"
)

func TestRunColocatedDefault(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rounds", "60", "-publish-seconds", "0.2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"optimizing 6f-3n-log(1+r) with the colocated engine",
		"enacted allocation into broker",
		"flow        rate",
		"class       admitted/attached",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// The deliberate 2x over-publish on flow 0 must show throttling.
	if !strings.Contains(s, "flow0") {
		t.Errorf("missing per-flow stats:\n%s", s)
	}
}

// TestRunConcurrentProducers exercises the -producers flag: the synthetic
// load is generated by more goroutines than flows, so several producers
// share flows and publish concurrently through the lock-free data plane.
func TestRunConcurrentProducers(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rounds", "60", "-publish-seconds", "0.2", "-producers", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"with 8 concurrent producers",
		"producer path: 8 goroutines published=",
		"flow        rate",
		"class       admitted/attached",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunMemoryTransport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-optimizer", "dist", "-rounds", "30", "-publish-seconds", "0.2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"optimizing 6f-3n-log(1+r) over memory transport",
		"enacted allocation into broker",
		"flow        rate",
		"class       admitted/attached",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunTCPTransport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-optimizer", "dist", "-transport", "tcp", "-rounds", "10", "-publish-seconds", "0.1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "over tcp transport") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunUnknownTransport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-optimizer", "dist", "-transport", "carrier-pigeon"}, &out); err == nil {
		t.Error("unknown transport accepted")
	}
}

func TestRunUnknownOptimizer(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-optimizer", "oracle"}, &out); err == nil {
		t.Error("unknown optimizer accepted")
	}
}

// TestRunTraceOutRoundTrips exercises -trace-out on the colocated path:
// the per-iteration JSONL must decode via telemetry.ReadTrace with one
// record per iteration of the solve, numbered from 1.
func TestRunTraceOutRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := run([]string{
		"-rounds", "60", "-publish-seconds", "0.1",
		"-trace-out", path,
	}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	// Up to 60 iterations (the solve may converge early).
	if len(recs) <= 2 {
		t.Fatalf("trace has %d records, want a full solve's worth", len(recs))
	}
	for i, r := range recs {
		if r.Iteration != i+1 {
			t.Fatalf("record %d has iteration %d, want continuous numbering", i, r.Iteration)
		}
	}
	last := recs[len(recs)-1]
	if last.Utility == 0 {
		t.Error("final trace record has zero utility")
	}
	if len(recs[0].Rates) == 0 || len(recs[0].NodePrices) == 0 {
		t.Error("trace records missing per-iteration rates/prices")
	}
}

// TestRunDistEventsRoundTrips exercises -dist-events: the flight-recorder
// log written after a dist run must parse with dist.ReadEventLog and
// analyze into a timeline covering every agent and round, and -trace-out
// must carry one record per finalized round.
func TestRunDistEventsRoundTrips(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var out bytes.Buffer
	if err := run([]string{
		"-optimizer", "dist", "-rounds", "30", "-publish-seconds", "0.1",
		"-dist-events", events, "-trace-out", tracePath,
		"-dist-stall-timeout", "30s",
	}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flight recorder: event log written to") {
		t.Errorf("missing event-log confirmation:\n%s", out.String())
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := dist.ReadEventLog(f)
	if err != nil {
		t.Fatal(err)
	}
	a := dist.Analyze(recs)
	if a.MaxRound != 30 {
		t.Errorf("analyzed MaxRound = %d, want 30", a.MaxRound)
	}
	// Base workload: 6 flow + 3 node agents.
	if len(a.Agents) != 9 {
		t.Errorf("analyzed %d agents, want 9", len(a.Agents))
	}
	if a.Stalls != 0 {
		t.Errorf("healthy run recorded %d stalls", a.Stalls)
	}

	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	trs, err := telemetry.ReadTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 30 {
		t.Fatalf("dist trace has %d records, want one per round", len(trs))
	}
	if trs[len(trs)-1].Utility == 0 {
		t.Error("final round record has zero utility")
	}
}

// TestRunAutopilot exercises -autopilot end to end: the continuous
// re-optimization loop must complete cycles under all three churn
// drivers, enact through the incremental path, and report the enact and
// oscillation accounting.
func TestRunAutopilot(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{
		"-autopilot", "-autopilot-seconds", "1", "-autopilot-interval", "20ms",
	}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"autopilot: re-optimizing 6f-3n-log(1+r) every 20ms for 1s (churn: storm,flash,diurnal)",
		"autopilot: cycles=",
		"enact: applies=",
		"traffic: published=",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	cyclesRe := regexp.MustCompile(`cycles=(\d+) enacted=(\d+)`)
	m := cyclesRe.FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no cycle summary in output:\n%s", s)
	}
	if m[1] == "0" {
		t.Errorf("autopilot ran zero cycles:\n%s", s)
	}
	if m[2] == "0" {
		t.Errorf("autopilot enacted nothing under churn:\n%s", s)
	}
}

// TestRunAutopilotRejectsDist: the autopilot is a colocated-engine loop.
func TestRunAutopilotRejectsDist(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-autopilot", "-optimizer", "dist"}, &out); err == nil {
		t.Error("-autopilot with -optimizer dist accepted")
	}
}

// TestRunAutopilotUnknownChurn: a bad churn driver name must fail fast.
func TestRunAutopilotUnknownChurn(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-autopilot", "-churn", "tsunami"}, &out); err == nil {
		t.Error("unknown churn driver accepted")
	}
}

// syncBuffer lets the test read run's output while run is still writing
// from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunTelemetryServesMetrics is the in-process version of the CI
// telemetry smoke (scripts/telemetry-smoke.sh): start lrgp-broker with
// -telemetry-addr, scrape /metrics mid-run, and assert the engine and
// broker counter families are present and non-empty.
func TestRunTelemetryServesMetrics(t *testing.T) {
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-rounds", "60", "-publish-seconds", "2",
			"-telemetry-addr", "127.0.0.1:0",
		}, out)
	}()

	// The listen line carries the resolved port.
	addrRe := regexp.MustCompile(`listening on http://([0-9.:]+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("telemetry listen line never appeared:\n%s", out.String())
	}

	fetch := func(path string) (int, string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}

	// Poll /metrics until the engine has stepped and the broker has
	// published (the 2s publish window keeps the server alive).
	stepsRe := regexp.MustCompile(`(?m)^lrgp_engine_steps_total ([1-9][0-9]*)$`)
	pubRe := regexp.MustCompile(`(?m)^lrgp_broker_published_total ([1-9][0-9]*)$`)
	var metrics string
	ok := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		_, body, err := fetch("/metrics")
		if err == nil && stepsRe.MatchString(body) && pubRe.MatchString(body) {
			metrics, ok = body, true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("engine/broker counters never became non-empty:\n%s", metrics)
	}
	for _, want := range []string{
		`lrgp_engine_stage_seconds_bucket{stage="rate",le="+Inf"}`,
		`lrgp_engine_stage_seconds_bucket{stage="admission",le="+Inf"}`,
		`lrgp_engine_stage_seconds_bucket{stage="price",le="+Inf"}`,
		"lrgp_engine_utility",
		"lrgp_broker_consumers_admitted",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body, err := fetch("/debug/pprof/cmdline"); err != nil || code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d (%v)", code, err)
	}
	if code, body, err := fetch("/snapshot"); err != nil || code != http.StatusOK ||
		!strings.Contains(body, "Utility") {
		t.Errorf("/snapshot = %d (%v):\n%.200s", code, err, body)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
