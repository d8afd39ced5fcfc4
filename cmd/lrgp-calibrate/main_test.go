package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDefault(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The instrumented broker costs 2 work units per consumer (filter +
	// delivery), so the fitted G must print as 2.0000.
	if !strings.Contains(s, "+ 2.0000 * consumers") {
		t.Errorf("fitted G missing:\n%s", s)
	}
	if !strings.Contains(s, "R^2 = 1.000000") {
		t.Errorf("R^2 missing:\n%s", s)
	}
	if !strings.Contains(s, "F (flow-node cost per unit rate)") {
		t.Errorf("coefficients missing:\n%s", s)
	}
}

func TestRunUnitCostScaling(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-unit-cost", "9.5", "-points", "50,100", "-msgs", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	// G = 2 work units * 9.5 = 19, the paper's constant.
	if !strings.Contains(out.String(), "= 19.0000") {
		t.Errorf("scaled G missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-points", "5"}, &out); err == nil {
		t.Error("single point accepted")
	}
	if err := run([]string{"-points", "a,b"}, &out); err == nil {
		t.Error("bad points accepted")
	}
	if err := run([]string{"-points", "10,-5"}, &out); err == nil {
		t.Error("negative point accepted")
	}
	if err := run([]string{"-unit-cost", "0", "-points", "5,10"}, &out); err == nil {
		t.Error("zero unit cost accepted")
	}
}

// TestRunRefusesBadFlags: a unit cost that is not finite and above 0, or
// fewer than one probe message per point, is refused with an error naming
// the flag before anything is measured or printed, instead of printing
// NaN coefficients or silently measuring 100 messages per point.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-unit-cost", "NaN"},
		{"-unit-cost", "+Inf"},
		{"-unit-cost", "-Inf"},
		{"-unit-cost", "-2"},
		{"-unit-cost", "0"},
		{"-msgs", "0"},
		{"-msgs", "-3"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run %q = %v, want an error naming %s", args, err, args[0])
		}
		if out.Len() != 0 {
			t.Errorf("run %q printed %q before refusing", args, out.String())
		}
	}
}
