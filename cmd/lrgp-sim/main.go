// Command lrgp-sim runs the LRGP optimizer on a workload and reports the
// resulting allocation, utility and convergence behavior.
//
// Usage:
//
//	lrgp-sim [-workload base|tiny|metro|metro-small|12f-6n|@file.json] [-shape log|r0.25|r0.5|r0.75]
//	         [-iters 250] [-gamma 0.1] [-adaptive]
//	         [-multirate] [-verbose] [-chart] [-csv] [-json] [-alloc]
//	         [-telemetry-addr :9090]
//
// With -telemetry-addr the run serves Prometheus /metrics, /debug/pprof,
// /debug/vars and /snapshot while it executes — attach a profiler or
// scraper to a long solve — and shuts the endpoint down when it exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrgp-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrgp-sim", flag.ContinueOnError)
	var (
		workloadSpec = fs.String("workload", "base", "workload: base, tiny, metro, metro-small, <F>f-<N>n, or @file.json")
		shapeName    = fs.String("shape", "log", "utility shape: log, r0.25, r0.5, r0.75")
		iters        = fs.Int("iters", 250, "maximum LRGP iterations")
		gamma        = fs.Float64("gamma", 0.1, "fixed node-price stepsize (ignored with -adaptive)")
		adaptive     = fs.Bool("adaptive", true, "use the adaptive gamma heuristic")
		chart        = fs.Bool("chart", false, "draw an ASCII chart of the utility trace")
		csv          = fs.Bool("csv", false, "emit the utility trace as CSV")
		showAlloc    = fs.Bool("alloc", false, "print the final allocation")
		multi        = fs.Bool("multirate", false, "use the multirate extension (per-class delivery rates)")
		verbose      = fs.Bool("verbose", false, "print per-node and per-link diagnostics")
		jsonOut      = fs.Bool("json", false, "emit the result as JSON (machine-readable)")
		telAddr      = fs.String("telemetry-addr", "", "serve /metrics, /debug/pprof, /debug/vars and /snapshot on this address while the run executes; empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*gamma > 0 && *gamma <= math.MaxFloat64) {
		return fmt.Errorf("-gamma %g: want a finite stepsize above 0", *gamma)
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: want at least 1", *iters)
	}

	shape, err := workload.ParseShape(*shapeName)
	if err != nil {
		return err
	}
	p, err := workload.Parse(*workloadSpec, shape)
	if err != nil {
		return err
	}

	cfg := core.Config{Adaptive: *adaptive}
	if !*adaptive {
		cfg.Gamma = *gamma
	}
	var snap atomic.Pointer[core.Snapshot]
	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		srv, err := telemetry.ListenAndServe(*telAddr, telemetry.NewMux(reg, func() (any, bool) {
			s := snap.Load()
			if s == nil {
				return nil, false
			}
			return s, true
		}))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "telemetry  listening on http://%s (/metrics /snapshot /debug/pprof /debug/vars)\n", srv.Addr)
	}
	if *multi {
		return runMultirate(out, p, cfg, *iters, *showAlloc)
	}
	e, err := core.NewEngine(p, cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	res := e.Solve(*iters)
	if *telAddr != "" {
		s := e.Snapshot()
		snap.Store(&s)
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Workload    string           `json:"workload"`
			Utility     float64          `json:"utility"`
			Converged   bool             `json:"converged"`
			ConvergedAt int              `json:"convergedAt"`
			Iterations  int              `json:"iterations"`
			Allocation  model.Allocation `json:"allocation"`
			Snapshot    core.Snapshot    `json:"snapshot"`
		}{p.Name, res.Utility, res.Converged, res.ConvergedAt, res.Iterations, res.Allocation, e.Snapshot()})
	}

	fmt.Fprintf(out, "workload  %s (%d flows, %d nodes, %d classes)\n", p.Name, len(p.Flows), len(p.Nodes), len(p.Classes))
	fmt.Fprintf(out, "utility   %.0f\n", res.Utility)
	if res.Converged {
		fmt.Fprintf(out, "converged at iteration %d (0.1%% amplitude rule)\n", res.ConvergedAt)
	} else {
		fmt.Fprintf(out, "not converged within %d iterations\n", res.Iterations)
	}
	if err := model.CheckFeasible(p, e.Index(), res.Allocation, 1e-6); err != nil {
		fmt.Fprintf(out, "feasible  no: %v\n", err)
	} else {
		fmt.Fprintln(out, "feasible  yes")
	}

	if *showAlloc {
		tb := trace.NewTable("allocation", "flow", "rate", "classes (admitted/max)")
		ix := e.Index()
		for i, f := range p.Flows {
			detail := ""
			for _, cid := range ix.ClassesByFlow(model.FlowID(i)) {
				c := p.Classes[cid]
				detail += fmt.Sprintf("%d:%d/%d ", cid, res.Allocation.Consumers[cid], c.MaxConsumers)
			}
			tb.Add(f.Name, fmt.Sprintf("%.1f", res.Allocation.Rates[i]), detail)
		}
		tb.Render(out)
	}

	if *verbose {
		s := e.Snapshot()
		fmt.Fprintf(out, "snapshot  %s\n", s.String())
		tb := trace.NewTable("node diagnostics", "node", "usage", "capacity", "load", "price", "gamma")
		for b := range p.Nodes {
			tb.Add(p.Nodes[b].Name,
				fmt.Sprintf("%.0f", s.NodeUsage[b]),
				fmt.Sprintf("%.0f", s.NodeCapacity[b]),
				fmt.Sprintf("%.1f%%", 100*s.NodeUsage[b]/s.NodeCapacity[b]),
				fmt.Sprintf("%.4f", s.NodePrices[b]),
				fmt.Sprintf("%.4f", s.Gammas[b]))
		}
		tb.Render(out)
		if len(p.Links) > 0 {
			lt := trace.NewTable("link diagnostics", "link", "usage", "capacity", "price")
			for l := range p.Links {
				lt.Add(p.Links[l].Name,
					fmt.Sprintf("%.0f", s.LinkUsage[l]),
					fmt.Sprintf("%.0f", s.LinkCapacity[l]),
					fmt.Sprintf("%.4f", s.LinkPrices[l]))
			}
			lt.Render(out)
		}
	}

	if *chart || *csv {
		fig := trace.NewSeriesSet("utility per iteration", "iteration")
		for i := range res.Trace {
			fig.X = append(fig.X, float64(i+1))
		}
		fig.AddSeries("utility", res.Trace)
		if *chart {
			fig.RenderASCII(out, 100, 20)
		}
		if *csv {
			fig.RenderCSV(out)
		}
	}
	return nil
}

// runMultirate solves with the multirate extension and reports the
// delivery-rate split.
func runMultirate(out io.Writer, p *model.Problem, cfg core.Config, iters int, showAlloc bool) error {
	e, err := multirate.NewEngine(p, cfg)
	if err != nil {
		return err
	}
	res := e.Solve(iters)

	fmt.Fprintf(out, "workload  %s (multirate; %d flows, %d nodes, %d classes)\n",
		p.Name, len(p.Flows), len(p.Nodes), len(p.Classes))
	fmt.Fprintf(out, "utility   %.0f\n", res.Utility)
	if res.Converged {
		fmt.Fprintf(out, "converged at iteration %d (0.1%% amplitude rule)\n", res.ConvergedAt)
	} else {
		fmt.Fprintf(out, "not converged within %d iterations\n", res.Iterations)
	}
	ix := model.NewIndex(p)
	if err := model.CheckFeasible(p, ix, res.Allocation, 1e-6); err != nil {
		fmt.Fprintf(out, "feasible  no: %v\n", err)
	} else {
		fmt.Fprintln(out, "feasible  yes")
	}
	if showAlloc {
		tb := trace.NewTable("multirate allocation", "class", "delivery", "source", "admitted/max")
		for j, c := range p.Classes {
			tb.Add(c.Name,
				fmt.Sprintf("%.1f", res.Allocation.Delivery[j]),
				fmt.Sprintf("%.1f", res.Allocation.Rates[c.Flow]),
				fmt.Sprintf("%d/%d", res.Allocation.Consumers[j], c.MaxConsumers))
		}
		tb.Render(out)
	}
	return nil
}
