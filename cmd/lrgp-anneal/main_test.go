package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFullMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-steps", "5000", "-temps", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"mode          full", "best utility", "accepted"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunRatesGreedyMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-steps", "2000", "-temps", "5,50", "-mode", "rates-greedy"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mode          rates-greedy") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "quantum"}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-temps", "abc"}, &out); err == nil {
		t.Error("bad temps accepted")
	}
	if err := run([]string{"-temps", ","}, &out); err == nil {
		t.Error("empty temps accepted")
	}
	if err := run([]string{"-workload", "zzz"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestParseTemps(t *testing.T) {
	got, err := parseTemps(" 5, 10 ,100 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 5 || got[2] != 100 {
		t.Errorf("parseTemps = %v", got)
	}
}

// TestRunRefusesBadTemps: a temperature that is not finite and above 0 is
// refused before anything runs. -temps NaN used to report "start temp
// NaN", and -temps 0 reported "start temp 0" for a run made at the
// default 5.
func TestRunRefusesBadTemps(t *testing.T) {
	for _, temps := range []string{"NaN", "0", "-3", "+Inf", "5,NaN"} {
		var out bytes.Buffer
		err := run([]string{"-steps", "100", "-temps", temps}, &out)
		if err == nil || !strings.Contains(err.Error(), "bad temperature") {
			t.Errorf("-temps %s: run = %v, want a bad temperature error", temps, err)
		}
		if out.Len() != 0 {
			t.Errorf("-temps %s printed %q before refusing", temps, out.String())
		}
	}
}

// TestRunRefusesBadFlags: a negative -steps is refused with an error naming
// it before anything runs, where it used to anneal the default 1,000,000
// steps per temperature. The rows pick no -mode, so a flag that is not
// refused fails on the mode without annealing.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "none", "-steps", "-1"},
	} {
		var out bytes.Buffer
		flag := args[len(args)-2]
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("run %q = %v, want an error naming %s", args, err, flag)
		}
		if out.Len() != 0 {
			t.Errorf("run %q printed %q before refusing", args, out.String())
		}
	}
}
