// Command bench is the repository's end-to-end benchmark: four workloads
// that drive broker, core, overlay/model and dist/transport through their
// public functions, check their outputs, and print every metric by name.
// README.md in this directory says why each workload and metric exists;
// BENCHMARK.json at the root of the repository is the contract it is run
// under.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run . [-workload name] [-seed 1] [-seconds 24] [-trace both|0|1]
//	         [-out results.json] [-spans spans.jsonl] [-commit id]
//	go run . -compare old.json[,old2.json...] new.json[,new2.json...]
//
// Without -workload every workload runs. -trace 0 makes the untraced run
// (end-to-end metrics), -trace 1 the traced one (per-layer metrics, spans),
// both makes one after the other. When a single run was made, the last
// line of standard output is its result as one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
)

var workloads = []workloadDef{
	{
		name:  "steady_fanout",
		why:   "one enacted allocation, no optimizer running, producers publish flat out: the broker's data plane does all the work, so a publish-path change shows undiluted and an optimizer change must not move it",
		loop:  "closed loop, 2 producer goroutines on disjoint flow sets",
		setup: setupSteady,
	},
	{
		name:  "demand_churn",
		why:   "autopilot cycling back to back under seeded attach/detach batches: core's perturb and warm re-solve do most of the work and the broker is used through its control plane beside a scheduled producer",
		loop:  "closed-loop controller goroutine; open-loop producer goroutine, 2,000 msg/s on each of 5 flows in 1 ms batches",
		setup: setupChurn,
	},
	{
		name:  "link_failure",
		why:   "links of a 10,000-node overlay fail and heal in seeded order: overlay repair and the model index refresh carry the weight, the autopilot does none; heals re-trace every flow",
		loop:  "closed loop, 1 goroutine alternating fail and heal",
		setup: setupLink,
	},
	{
		name:  "dist_rounds",
		why:   "72 agents and a collector run lock-step rounds over loopback TCP with the default wire and schedule: dist and transport do the work, broker and overlay none",
		loop:  "closed loop, 1 caller driving Cluster.Run in chunks of 10 rounds",
		setup: setupDist,
	},
}

// defaultSeconds is how long a run measures unless -seconds says
// otherwise: run_seconds of BENCHMARK.json.
const defaultSeconds = 24

// hostInfo says where numbers were taken, so that numbers from different
// hosts are never compared by accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Host hostInfo  `json:"host"`
	Runs []*result `json:"runs"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		only    = fs.String("workload", "", "run only this workload (default: all of them)")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", defaultSeconds, "how long each run measures")
		trace   = fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both: one after the other")
		outPath = fs.String("out", "", "write the runs, with the host they were made on, to this JSON file")
		spans   = fs.String("spans", "", "write the traced runs' spans to this JSONL file")
		commit  = fs.String("commit", "unknown", "commit id to record in -out")
		compare = fs.Bool("compare", false, "compare two sets of -out files, given as two comma-separated lists, and exit non-zero on a regression")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two arguments: old.json[,...] new.json[,...]")
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}

	defs := workloads
	if *only != "" {
		defs = nil
		for _, d := range workloads {
			if d.name == *only {
				defs = []workloadDef{d}
			}
		}
		if defs == nil {
			return fmt.Errorf("unknown workload %q", *only)
		}
	}
	var passes []bool // traced?
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}

	var spanOut *os.File
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			return err
		}
		defer f.Close() // closed with its error checked below
		spanOut = f
	}

	file := runFile{Host: hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     *commit,
	}}
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s commit=%s; seed=%d, %gs per run\n",
		file.Host.NProc, file.Host.GOMAXPROCS, file.Host.Go, file.Host.Commit, *seed, *seconds)
	for _, traced := range passes {
		for _, def := range defs {
			res, tr, err := runWorkload(def, runOpts{
				seed: *seed, seconds: *seconds, traced: traced,
				setups: defaultSetups, setupBudget: defaultSetupBudget, warmup: defaultWarmup,
			})
			if err != nil {
				// An output check failed, or an operation the workload
				// cannot go on without: no metric of this run is printed
				// and the command fails.
				return err
			}
			file.Runs = append(file.Runs, res)
			printResult(out, def, res)
			if tr != nil && spanOut != nil {
				if err := tr.writeJSONL(spanOut, def.name); err != nil {
					return err
				}
			}
		}
	}
	if spanOut != nil {
		if err := spanOut.Close(); err != nil {
			return err
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(file.Runs) == 1 {
		r := file.Runs[0]
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}

// printResult prints one run: every metric by name with its unit and, for
// timings, the number of samples behind it and the highest percentile that
// many samples support.
func printResult(out io.Writer, def workloadDef, r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "\n== %s (%s, seed %d, %gs; %s)\n", r.Workload, kind, r.Seed, r.Seconds, def.loop)
	fmt.Fprintf(out, "   operations attempted %d, failed %d; output checks passed\n", r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// Plain names (the end-to-end ones) before module-prefixed ones.
		if li, lj := isLayerMetric(names[i]), isLayerMetric(names[j]); li != lj {
			return lj
		}
		return names[i] < names[j]
	})
	bypassed := 0
	for _, name := range names {
		mv := r.Metrics[name]
		if r.Traced && mv.Value == 0 {
			// A layer this workload does not go through.
			bypassed++
			continue
		}
		note := ""
		if n := r.Samples[name]; n > 0 {
			note = fmt.Sprintf("  (n=%d, supports up to p%s)", n, strconv.FormatFloat(100*tailPercentile(n), 'f', -1, 64))
		}
		fmt.Fprintf(out, "   %-34s %14.6g %-6s%s\n", name, mv.Value, mv.Unit, note)
	}
	if bypassed > 0 {
		fmt.Fprintf(out, "   (%d metrics of layers this workload bypasses are 0 and not listed)\n", bypassed)
	}
}
