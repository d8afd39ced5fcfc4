package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRunSelectedExperiments(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-run", "fig1,ablation", "-iters", "60", "-sa-steps", "2000", "-chart=false",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 1") {
		t.Errorf("missing fig1:\n%s", s)
	}
	if !strings.Contains(s, "X2: admission-control ablation") {
		t.Errorf("missing ablation:\n%s", s)
	}
	if strings.Contains(s, "Table 2") {
		t.Errorf("unselected experiment ran:\n%s", s)
	}
}

func TestRunSweepExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "sweep", "-iters", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "warm-started capacity sweep") {
		t.Errorf("missing sweep table:\n%s", s)
	}
	if !strings.Contains(s, "warm start saved") {
		t.Errorf("missing savings summary:\n%s", s)
	}
}

// TestRunScalingExperiment: -run scaling accepts the metro presets by
// name and reports one row per GOMAXPROCS setting with the execution mode;
// on metro-small every GOMAXPROCS > 1 engine must actually shard.
func TestRunScalingExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "scaling", "-workload", "metro-small", "-iters", "30"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "X9: Step scaling vs GOMAXPROCS (metro-small: 240 flows, 1200 nodes, 9600 classes") {
		t.Errorf("missing scaling table title:\n%s", s)
	}
	if !strings.Contains(s, "serial") || !strings.Contains(s, "sharded") {
		t.Errorf("missing execution modes:\n%s", s)
	}
	if err := run([]string{"-run", "scaling", "-workload", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunCSVOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig4", "-iters", "40", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "iteration,adaptive gamma") {
		t.Errorf("missing CSV header:\n%s", out.String())
	}
}

func TestRunChartOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig2", "-iters", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "adaptive gamma") {
		t.Errorf("missing legend:\n%s", out.String())
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "ablation", "-iters", "40", "-markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "**X2: admission-control ablation (base workload)**") {
		t.Errorf("missing markdown title:\n%s", s)
	}
	if !strings.Contains(s, "|---|") {
		t.Errorf("missing markdown separator:\n%s", s)
	}
}

// TestRunTraceOut: `-run none -trace-out x.jsonl` records only the JSONL
// iteration trace, and the file decodes with telemetry.ReadTrace.
func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-run", "none", "-trace-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace: wrote") {
		t.Errorf("missing trace summary line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Figure 1") {
		t.Errorf("-run none still ran experiments:\n%s", out.String())
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
	if len(recs) == 0 || recs[0].Iteration != 1 || recs[0].Utility <= 0 {
		t.Errorf("trace malformed: %d records, first %+v", len(recs), recs[0])
	}
}

// TestRunChurnExperiment: `-run churn -short` is the CI-sized X11 run —
// a few hundred nodes, four alternating fail/heal events — and must
// report the per-event table plus the warm-vs-cold summary line.
func TestRunChurnExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "churn", "-short"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "X11: rolling link failures") {
		t.Errorf("missing churn table:\n%s", s)
	}
	if !strings.Contains(s, "churn handled") {
		t.Errorf("missing warm-vs-cold summary:\n%s", s)
	}
	if err := run([]string{"-run", "churn", "-short", "-fail-kind", "bogus"}, &out); err == nil {
		t.Error("bad -fail-kind accepted")
	}
}

// TestRunUnknownExperiment: a -run name that names no experiment is an
// error listing the valid ones, alone or beside a valid name, and nothing
// runs.
func TestRunUnknownExperiment(t *testing.T) {
	for _, spec := range []string{"fgi1", "fig1,fgi1", "all, x11"} {
		var out bytes.Buffer
		err := run([]string{"-run", spec, "-iters", "5", "-chart=false"}, &out)
		if err == nil || !strings.Contains(err.Error(), "fig1, fig2") {
			t.Errorf("-run %q: err = %v, want one listing the experiments", spec, err)
		}
		if out.Len() != 0 {
			t.Errorf("-run %q printed %q before refusing", spec, out.String())
		}
	}
}

func TestRunUnknownFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
