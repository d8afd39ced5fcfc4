// Command lrgp-anneal runs the centralized simulated-annealing baselines
// on a workload (Section 4.4 of the paper).
//
// Usage:
//
//	lrgp-anneal [-workload base|tiny|12f-6n|@file.json] [-shape log|...]
//	            [-steps 1000000] [-temps 5,10,50,100] [-seed 1]
//	            [-mode full|rates-greedy]
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

	"repro/internal/anneal"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrgp-anneal:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrgp-anneal", flag.ContinueOnError)
	var (
		workloadSpec = fs.String("workload", "base", "workload: base, tiny, <F>f-<N>n, or @file.json")
		shapeName    = fs.String("shape", "log", "utility shape: log, r0.25, r0.5, r0.75")
		steps        = fs.Int("steps", anneal.DefaultMaxSteps, "total annealing steps per start temperature")
		tempsFlag    = fs.String("temps", "5,10,50,100", "comma-separated start temperatures")
		seed         = fs.Int64("seed", 1, "random seed")
		mode         = fs.String("mode", "full", "state space: full (rates+populations) or rates-greedy")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *steps < 0 {
		return fmt.Errorf("-steps %d: want 0 (the default) or more", *steps)
	}

	shape, err := workload.ParseShape(*shapeName)
	if err != nil {
		return err
	}
	p, err := workload.Parse(*workloadSpec, shape)
	if err != nil {
		return err
	}
	temps, err := parseTemps(*tempsFlag)
	if err != nil {
		return err
	}

	cfg := anneal.Config{MaxSteps: *steps, Seed: *seed}
	var (
		res      anneal.Result
		bestTemp float64
	)
	switch *mode {
	case "full":
		res, bestTemp, err = anneal.SolveBestOf(p, cfg, temps)
	case "rates-greedy":
		res, bestTemp, err = anneal.SolveRatesGreedyBestOf(p, cfg, temps)
	default:
		return fmt.Errorf("unknown -mode %q (want full or rates-greedy)", *mode)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "workload      %s\n", p.Name)
	fmt.Fprintf(out, "mode          %s\n", *mode)
	fmt.Fprintf(out, "best utility  %.0f (start temp %g)\n", res.BestUtility, bestTemp)
	fmt.Fprintf(out, "final utility %.0f\n", res.FinalUtility)
	fmt.Fprintf(out, "steps         %d in %d rounds (%v, winning run)\n",
		res.Steps, res.Rounds, res.Runtime.Round(time.Millisecond))
	fmt.Fprintf(out, "accepted      %d (%d strict improvements)\n", res.Accepted, res.Improved)
	return nil
}

func parseTemps(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad temperature %q: %w", part, err)
		}
		if !(v > 0 && v <= math.MaxFloat64) {
			return nil, fmt.Errorf("bad temperature %q: want a finite temperature above 0", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no temperatures in %q", s)
	}
	return out, nil
}
