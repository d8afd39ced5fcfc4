// Command lrgp-calibrate runs the resource-model calibration rig: it
// stands up a dedicated broker, sweeps admitted population sizes while
// publishing probe messages, regresses per-message work against the
// population size, and prints the recovered F/G coefficients — the same
// methodology that produced the paper's Gryphon-derived constants
// (F = 3, G = 19).
//
// Usage:
//
//	lrgp-calibrate [-points 25,50,100,200,400] [-msgs 200] [-unit-cost 1.0]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/calibrate"
	"repro/internal/model"
	"repro/internal/utility"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrgp-calibrate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrgp-calibrate", flag.ContinueOnError)
	var (
		pointsFlag = fs.String("points", "25,50,100,200,400", "comma-separated admitted population sizes to sweep")
		msgs       = fs.Int("msgs", 200, "probe messages per sweep point")
		unitCost   = fs.Float64("unit-cost", 1.0, "resource units per abstract work unit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*unitCost > 0 && *unitCost <= math.MaxFloat64) {
		return fmt.Errorf("-unit-cost %g: want a finite cost above 0", *unitCost)
	}
	if *msgs < 1 {
		return fmt.Errorf("-msgs %d: want at least 1", *msgs)
	}

	points, err := parsePoints(*pointsFlag)
	if err != nil {
		return err
	}
	maxPop := 0
	for _, n := range points {
		if n > maxPop {
			maxPop = n
		}
	}

	// A dedicated measurement rig: one flow, one class, enough attached
	// consumers to cover the sweep.
	rig := &model.Problem{
		Name: "calibration-rig",
		Flows: []model.Flow{
			{ID: 0, Name: "probe", Source: 0, RateMin: 1, RateMax: 1e6},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "rig", Capacity: 1e12, FlowCost: map[model.FlowID]float64{0: 1}},
		},
		Classes: []model.Class{
			{ID: 0, Name: "subjects", Flow: 0, Node: 0, MaxConsumers: maxPop,
				CostPerConsumer: 1, Utility: utility.NewLog(1)},
		},
	}
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b, err := broker.New(rig, broker.WithClock(func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}))
	if err != nil {
		return err
	}
	for i := 0; i < maxPop; i++ {
		if _, err := b.AttachConsumer(0, nil, nil); err != nil {
			return err
		}
	}

	samples, err := calibrate.MeasureBroker(b, 0, 0, 1000, points, *msgs)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "consumers  work/message")
	for _, s := range samples {
		fmt.Fprintf(out, "%9d  %12.2f\n", s.Consumers, s.WorkPerMessage)
	}

	fit, err := calibrate.FitAffine(samples)
	if err != nil {
		return err
	}
	fCost, gCost, err := calibrate.ProblemCoefficients(fit, *unitCost)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfit: work/message = %.4f + %.4f * consumers (R^2 = %.6f)\n", fit.F, fit.G, fit.R2)
	fmt.Fprintf(out, "model coefficients at unit cost %g:\n", *unitCost)
	fmt.Fprintf(out, "  F (flow-node cost per unit rate)      = %.4f\n", fCost)
	fmt.Fprintf(out, "  G (per-consumer cost per unit rate)   = %.4f\n", gCost)
	fmt.Fprintf(out, "(the paper's Gryphon measurements gave F = 3, G = 19)\n")
	return nil
}

func parsePoints(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad population %q", part)
		}
		out = append(out, v)
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("need at least two sweep points, got %q", s)
	}
	return out, nil
}
