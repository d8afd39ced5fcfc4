// Command lrgp-experiments regenerates the paper's tables and figures
// (and this repository's extension experiments); see EXPERIMENTS.md for
// the recorded outputs.
//
// Usage:
//
//	lrgp-experiments [-run all|none|fig1|fig2|fig3|fig4|table2|table3|async|ablation|links|prune|overhead|gamma|multirate|sweep|scaling|churn]
//	                 [-iters 250] [-sa-steps 1000000] [-seed 1]
//	                 [-workload metro-small] [-csv] [-chart] [-trace-out run.jsonl]
//	                 [-topo-nodes 10000] [-fail-every 400] [-fail-kind link|node] [-short]
//
// The churn-specific flags size the X11 rolling-failure experiment:
// -topo-nodes the overlay, -fail-every the iteration budget between
// failures, -fail-kind what dies. -short shrinks X11 to a CI-sized run.
//
// -trace-out records a structured JSONL iteration trace (one
// telemetry.IterationRecord per line: rates, consumer populations,
// prices, stage wall times, admission churn) of a traced base-workload
// run, in addition to whatever -run selects; use `-run none -trace-out
// run.jsonl` to record only the trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrgp-experiments:", err)
		os.Exit(1)
	}
}

// experimentNames are the names -run selects besides all and none.
var experimentNames = []string{"fig1", "fig2", "fig3", "fig4", "table2", "table3", "async", "ablation", "links", "prune", "overhead", "gamma", "multirate", "sweep", "scaling", "churn"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrgp-experiments", flag.ContinueOnError)
	var (
		runSpec  = fs.String("run", "all", "experiments to run (comma-separated): all, none, "+strings.Join(experimentNames, ", "))
		iters    = fs.Int("iters", 250, "LRGP iterations per run")
		saSteps  = fs.Int("sa-steps", 1_000_000, "full-state annealing steps per start temperature")
		seed     = fs.Int64("seed", 1, "random seed for stochastic baselines")
		wlSpec   = fs.String("workload", "", "workload for the scaling experiment: metro, metro-small, base, <F>f-<N>n, @file.json (default metro-small)")
		csv      = fs.Bool("csv", false, "emit figures/tables as CSV instead of text")
		markdown = fs.Bool("markdown", false, "emit tables as GitHub-flavored Markdown")
		chart    = fs.Bool("chart", true, "draw ASCII charts for figures")
		traceOut = fs.String("trace-out", "", "record a JSONL iteration trace of a base-workload run to this file (use with -run none to record only the trace)")

		topoNodes = fs.Int("topo-nodes", 0, "X11 churn: overlay size (default 10000)")
		failEvery = fs.Int("fail-every", 0, "X11 churn: iteration budget between failure events (default 400)")
		failKind  = fs.String("fail-kind", "link", "X11 churn: what fails, link or node")
		short     = fs.Bool("short", false, "shrink the churn experiment to a CI-sized run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := make(map[string]bool)
	for _, name := range strings.Split(*runSpec, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && name != "none" && !slices.Contains(experimentNames, name) {
			return fmt.Errorf("-run: unknown experiment %q; want all, none or any of %s", name, strings.Join(experimentNames, ", "))
		}
		want[name] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	opts := experiments.Options{Iterations: *iters, SASteps: *saSteps, Seed: *seed, Workload: *wlSpec}

	if *traceOut != "" {
		if err := recordTrace(out, opts, *traceOut); err != nil {
			return err
		}
	}

	emitFig := func(fig *trace.SeriesSet) {
		if *csv {
			fig.RenderCSV(out)
		} else if *chart {
			fig.RenderASCII(out, 100, 20)
		} else {
			fmt.Fprintf(out, "== %s == (%d iterations; use -chart or -csv for data)\n", fig.Title, len(fig.X))
		}
		fmt.Fprintln(out)
	}
	emitTable := func(t *trace.Table) {
		switch {
		case *csv:
			fmt.Fprintf(out, "# %s\n", t.Title)
			t.RenderCSV(out)
		case *markdown:
			t.RenderMarkdown(out)
		default:
			t.Render(out)
		}
		fmt.Fprintln(out)
	}

	if selected("fig1") {
		fig, err := experiments.Figure1Damping(opts)
		if err != nil {
			return err
		}
		emitFig(fig)
	}
	if selected("fig2") {
		fig, err := experiments.Figure2AdaptiveGamma(opts)
		if err != nil {
			return err
		}
		emitFig(fig)
	}
	if selected("fig3") {
		res, err := experiments.Figure3Recovery(opts)
		if err != nil {
			return err
		}
		emitFig(res.Fig)
		for _, name := range res.Fig.Names {
			fmt.Fprintf(out, "  recovery (%s): %d iterations to re-enter the 0.5%% band\n", name, res.RecoveryIters[name])
		}
		fmt.Fprintln(out)
	}
	if selected("fig4") {
		fig, err := experiments.Figure4PowerUtility(opts)
		if err != nil {
			return err
		}
		emitFig(fig)
	}
	if selected("table2") {
		rows, err := experiments.Table2Scalability(opts)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderComparison(
			"Table 2: LRGP vs simulated annealing as the system grows", rows))
	}
	if selected("table3") {
		rows, err := experiments.Table3UtilityShapes(opts)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderComparison(
			"Table 3: convergence and quality as the utility shape varies", rows))
	}
	if selected("async") {
		res, err := experiments.AsyncExperiment(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== X1: asynchronous LRGP (Section 3.5, message-passing agents, staleness K=%d) ==\n", res.Staleness)
		fmt.Fprintf(out, "  sync utility    %.0f\n", res.SyncUtility)
		fmt.Fprintf(out, "  async utility   %.0f (tail mean, rel err %.4f)\n", res.AsyncUtility, res.RelativeError)
		fmt.Fprintf(out, "  converged       %v at round %d (%d of %d rounds finalized)\n\n",
			res.Converged, res.ConvergedAt, res.Finalized, res.Rounds)
	}
	if selected("ablation") {
		rows, err := experiments.AblationAdmission(opts)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderAblation(rows))
	}
	if selected("multirate") {
		rows, err := experiments.MultirateExperiment(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== X7: multirate dissemination (the paper's deferred future work) ==")
		for _, r := range rows {
			fmt.Fprintf(out, "  %-16s single-rate %9.0f | multirate %9.0f | gain %+6.2f%%",
				r.Workload, r.SingleUtility, r.MultiUtility, r.GainPct)
			if r.FastDelivery > 0 {
				fmt.Fprintf(out, " | delivery split %g vs %.1f msg/s", r.FastDelivery, r.SlowDelivery)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintln(out)
	}
	if selected("gamma") {
		rows, err := experiments.GammaControllerAblation(opts)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderGammaAblation(rows))
	}
	if selected("prune") {
		res, err := experiments.PruneExperiment(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== X4: two-stage path pruning (Section 2.4, stage 2) ==")
		fmt.Fprintf(out, "  stage 1 utility   %.0f (%d classes)\n",
			res.Stage1.Result.Utility, len(res.Stage1.Problem.Classes))
		fmt.Fprintf(out, "  pruned            %d classes, %d node visits, %d link visits\n",
			res.PrunedClasses, res.PrunedNodeVisits, res.PrunedLinkVisits)
		fmt.Fprintf(out, "  stage 2 utility   %.0f (gain %+.0f, %+.2f%%)\n\n",
			res.Stage2.Result.Utility, res.UtilityGain, 100*res.UtilityGain/res.Stage1.Result.Utility)
	}
	if selected("sweep") {
		res, err := experiments.WarmStartSweep(opts)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderSweep(res))
		fmt.Fprintf(out, "  warm start saved %d of %d cold iterations (%.0f%%)\n\n",
			res.ColdIters-res.WarmIters, res.ColdIters,
			100*float64(res.ColdIters-res.WarmIters)/float64(res.ColdIters))
	}
	if selected("scaling") {
		res, err := experiments.ScalingExperiment(opts)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderScaling(res))
	}
	if selected("overhead") {
		rows, err := experiments.OverheadExperiment(opts, 0)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderOverhead(rows))
		rt, err := experiments.DistRuntimeExperiment(opts, 0)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderDistRuntime(rt))
	}
	if selected("churn") {
		cc := experiments.ChurnConfig{
			TopoNodes: *topoNodes,
			FailEvery: *failEvery,
			FailKind:  *failKind,
		}
		if *short {
			// CI-sized: a few hundred nodes, few events, short budgets.
			if cc.TopoNodes == 0 {
				cc.TopoNodes = 400
			}
			if cc.FailEvery == 0 {
				cc.FailEvery = 200
			}
			cc.Flows = 8
			cc.Events = 4
			cc.ColdBudget = 1200
		}
		res, err := experiments.ChurnExperiment(opts, cc)
		if err != nil {
			return err
		}
		emitTable(experiments.RenderChurn(res))
		fmt.Fprintf(out, "  base solve: %d iterations to utility %.0f; churn handled %.1fx faster warm than cold\n\n",
			res.BaseIters, res.BaseUtility, res.Speedup)
	}
	if selected("links") {
		res, err := experiments.LinkBottleneckExperiment(opts, 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== X3: link bottlenecks (Equations 4 and 13 exercised) ==")
		fmt.Fprintf(out, "  link caps         %.0f%% of rateMax per flow\n", res.Utilization*100)
		fmt.Fprintf(out, "  utility           %.0f (unconstrained baseline %.0f)\n", res.Utility, res.BaselineNoLink)
		fmt.Fprintf(out, "  max link usage    %.1f%% of capacity\n", res.MaxLinkUsage*100)
		if res.Converged {
			fmt.Fprintf(out, "  converged at      %d\n\n", res.ConvergedAt)
		} else {
			fmt.Fprintf(out, "  converged         no\n\n")
		}
	}
	return nil
}

// recordTrace runs the traced base-workload solve and writes its JSONL
// iteration trace to path.
func recordTrace(out io.Writer, opts experiments.Options, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := telemetry.NewTraceWriter(f)
	res, err := experiments.TracedRun(opts, tw)
	if err != nil {
		f.Close()
		return err
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	converged := "not converged"
	if res.Converged {
		converged = fmt.Sprintf("converged at %d", res.ConvergedAt)
	}
	fmt.Fprintf(out, "trace: wrote %d iteration records to %s (utility %.0f, %s)\n\n",
		res.Iterations, path, res.Utility, converged)
	return nil
}
