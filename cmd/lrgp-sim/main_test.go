package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestRunBaseWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-iters", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"workload  6f-3n-log(1+r)", "utility", "feasible  yes"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunWithAllocAndChart(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "tiny", "-iters", "50", "-alloc", "-chart", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== allocation ==") {
		t.Errorf("missing allocation table:\n%s", s)
	}
	if !strings.Contains(s, "iteration,utility") {
		t.Errorf("missing CSV header:\n%s", s)
	}
}

// TestRunMetroSmallWorkload: the metro presets resolve by name, and the
// componentized pod structure lets Step fan out over GOMAXPROCS shards
// (visible in the -verbose snapshot summary).
func TestRunMetroSmallWorkload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var out bytes.Buffer
	err := run([]string{"-workload", "metro-small", "-iters", "40", "-verbose"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "workload  metro-24p-240f-1200n (240 flows, 1200 nodes, 9600 classes)") {
		t.Errorf("missing metro workload line:\n%.400s", s)
	}
	if !strings.Contains(s, "(sharded)") {
		t.Errorf("snapshot summary does not report a sharded Step:\n%.400s", s)
	}
}

func TestRunFixedGamma(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-adaptive=false", "-gamma", "0.05", "-iters", "60"}, &out); err != nil {
		t.Fatal(err)
	}
}

// TestRunRefusesBadFlags: a stepsize that is not finite and above 0, or
// an iteration budget below 1, is refused with an error naming the flag,
// instead of running (NaN), silently taking the default (-1) or running
// to convergence (0, -5).
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-adaptive=false", "-gamma", "NaN"},
		{"-adaptive=false", "-gamma", "-1"},
		{"-adaptive=false", "-gamma", "0"},
		{"-gamma", "+Inf"},
		{"-iters", "0"},
		{"-iters", "-5"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Errorf("run %q = %v, want an error naming %s", args, err, args[len(args)-2])
		}
		if out.Len() != 0 {
			t.Errorf("run %q printed %q before refusing", args, out.String())
		}
	}
}

func TestRunMultirateFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-multirate", "-iters", "100", "-alloc"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "(multirate;") || !strings.Contains(s, "== multirate allocation ==") {
		t.Errorf("multirate output malformed:\n%s", s)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-iters", "60", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Workload  string  `json:"workload"`
		Utility   float64 `json:"utility"`
		Converged bool    `json:"converged"`
		Snapshot  struct {
			NodeUsage []float64 `json:"NodeUsage"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if got.Workload != "6f-3n-log(1+r)" || got.Utility <= 0 {
		t.Errorf("decoded %+v", got)
	}
	if len(got.Snapshot.NodeUsage) != 3 {
		t.Errorf("snapshot nodes = %d", len(got.Snapshot.NodeUsage))
	}
}

func TestRunVerboseDiagnostics(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-iters", "60", "-verbose"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== node diagnostics ==") {
		t.Errorf("missing diagnostics:\n%s", out.String())
	}
	// The Snapshot.String() summary line precedes the tables.
	sumRe := regexp.MustCompile(`snapshot  iter=\d+ utility=[\d.]+ .*workers=\d+ \((serial|sharded)\)`)
	if !sumRe.MatchString(out.String()) {
		t.Errorf("missing snapshot summary line:\n%s", out.String())
	}
}

// TestRunTelemetryAddr: with -telemetry-addr the sim prints the resolved
// listen address before solving and tears the server down on return.
// (Mid-run scraping is covered by the lrgp-broker in-process smoke and
// the telemetry package's own HTTP tests.)
func TestRunTelemetryAddr(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "tiny", "-iters", "30", "-telemetry-addr", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`telemetry  listening on http://([0-9.:]+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("missing telemetry listen line:\n%s", out.String())
	}
	if _, err := http.Get("http://" + m[1] + "/metrics"); err == nil {
		t.Error("telemetry server still reachable after run returned")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-shape", "r0.9"}, &out); err == nil {
		t.Error("unknown shape accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
