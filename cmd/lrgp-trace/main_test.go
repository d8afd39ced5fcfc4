package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// syntheticLog writes a small event log with a known straggler: flow/0
// and node/0 march one round per 10µs through round 10 while flow/1
// finishes round 1, chirps twice, and only catches up at the end.
func syntheticLog(t *testing.T) string {
	t.Helper()
	const us = int64(1000)
	var sb strings.Builder
	seq := 0
	add := func(agent string, ns int64, ev string, round int, a, b int64) {
		fmt.Fprintf(&sb, `{"agent":%q,"seq":%d,"ns":%d,"ev":%q,"round":%d,"a":%d,"b":%d}`+"\n",
			agent, seq, ns, ev, round, a, b)
		seq++
	}
	for r := 1; r <= 10; r++ {
		ns := int64(r) * 10 * us
		if r > 1 {
			add("flow/0", ns-us, "absorb", r-1, 0, 0) // report from node/0
		}
		add("flow/0", ns, "send", r, 0, 2)
		add("flow/0", ns, "round", r, 0, 0)
		add("node/0", ns+us, "absorb", r, 0, 0) // rate from flow/0
		add("node/0", ns+us, "send", r, 1, 2)
		add("node/0", ns+us, "round", r, 0, 0)
	}
	add("flow/1", 10*us, "absorb", 1, 0, 0)
	add("flow/1", 10*us, "send", 1, 0, 2)
	add("flow/1", 10*us, "round", 1, 0, 0)
	add("flow/1", 50*us, "resend", 1, 4000, 0)
	add("flow/1", 70*us, "resend", 1, 8000, 0)
	add("flow/1", 100*us, "round", 10, 0, 0)

	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRendersTables(t *testing.T) {
	path := syntheticLog(t)
	var out bytes.Buffer
	if err := run([]string{"-events", path}, &out, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()

	if !regexp.MustCompile(`(?m)^\d+ events from 3 agents; 10 rounds over .*; 2 resend chirps, 0 stall\(s\)$`).MatchString(got) {
		t.Errorf("summary line missing or wrong:\n%s", got)
	}
	for _, table := range []string{
		"== round timeline ==",
		"== stragglers (time spent >1 round behind the component frontier) ==",
		"== loss hotspots (rounds by resend chirps) ==",
		"== effective staleness (input lag observed at each send) ==",
	} {
		if !strings.Contains(got, table) {
			t.Errorf("output missing %q", table)
		}
	}

	// flow/1 must be the first data row of the straggler table.
	strag := got[strings.Index(got, "== stragglers"):]
	lines := strings.Split(strag, "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[3], "flow/1") {
		t.Errorf("straggler table does not lead with flow/1:\n%s", strag)
	}
	// Round 1 drew both chirps, so it is the loss hotspot.
	hot := got[strings.Index(got, "== loss hotspots"):]
	lines = strings.Split(hot, "\n")
	if len(lines) < 4 || !strings.HasPrefix(strings.TrimSpace(lines[3]), "1") {
		t.Errorf("loss hotspots does not lead with round 1:\n%s", hot)
	}
}

func TestRunCSV(t *testing.T) {
	path := syntheticLog(t)
	var out bytes.Buffer
	if err := run([]string{"-events", path, "-csv"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, header := range []string{
		"round,sends,recvs,resends,start_ms,window_ms",
		"agent,rounds,max_lag,chirps,behind_ms",
		"round,resends,sends,recvs",
		"lag_rounds,sends,share",
	} {
		if !strings.Contains(got, header) {
			t.Errorf("CSV output missing header %q:\n%s", header, got)
		}
	}
	if strings.Contains(got, "== ") {
		t.Error("CSV output contains aligned-text table headers")
	}
}

func TestRunTopLimitsRows(t *testing.T) {
	path := syntheticLog(t)
	var out bytes.Buffer
	if err := run([]string{"-events", path, "-top", "1"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	strag := out.String()[strings.Index(out.String(), "== stragglers"):]
	end := strings.Index(strag, "\n\n")
	if end < 0 {
		end = len(strag)
	}
	// header + column row + rule + exactly one data row
	if rows := strings.Count(strings.TrimRight(strag[:end], "\n"), "\n") + 1; rows != 4 {
		t.Errorf("straggler table has %d lines with -top 1, want 4:\n%s", rows, strag[:end])
	}
}

func TestRunReadsStdin(t *testing.T) {
	path := syntheticLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-events", "-"}, &out, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== round timeline ==") {
		t.Error("stdin mode produced no timeline")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil); err == nil {
		t.Error("missing -events did not error")
	}
	if err := run([]string{"-events", filepath.Join(t.TempDir(), "absent.jsonl")}, &out, nil); err == nil {
		t.Error("absent file did not error")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-events", empty}, &out, nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty log error = %v, want 'empty'", err)
	}
}

// TestRunRefusesBadFlags: a negative -top is refused with an error naming
// it before the log is read, where it used to print empty tables.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-top", "-1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, nil); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run %q = %v, want an error naming %s", args, err, args[0])
		}
		if out.Len() != 0 {
			t.Errorf("run %q printed %q before refusing", args, out.String())
		}
	}
}
