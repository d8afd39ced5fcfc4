package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// errRegression is returned by compareFiles when the new side is worse
// than the old by more than a metric's bound, or fails more operations.
var errRegression = errors.New("regression")

// loadRuns reads a comma-separated list of -out files and pools their
// untraced runs by workload. All files of one side must come from one
// host shape.
func loadRuns(list string) (hostInfo, map[string][]*result, error) {
	var host hostInfo
	runs := make(map[string][]*result)
	for k, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return host, nil, err
		}
		var f runFile
		if err := json.Unmarshal(data, &f); err != nil {
			return host, nil, fmt.Errorf("%s: %w", path, err)
		}
		if k == 0 {
			host = f.Host
		} else if !sameHost(host, f.Host) {
			return host, nil, fmt.Errorf("%s was recorded on a different host shape than %s", path, strings.Split(list, ",")[0])
		}
		for _, r := range f.Runs {
			if !r.Traced {
				runs[r.Workload] = append(runs[r.Workload], r)
			}
		}
	}
	return host, runs, nil
}

// sameHost reports whether two recordings may be compared; the commit is
// what is allowed to differ.
func sameHost(a, b hostInfo) bool {
	return a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS && a.Go == b.Go
}

// side summarizes one side's runs of one workload for one metric.
type side struct {
	median, spread float64
	n              int
}

func summarize(runs []*result, metric string) side {
	var vs series
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok {
			vs = append(vs, mv.Value)
		}
	}
	if len(vs) == 0 {
		return side{median: math.NaN(), spread: math.NaN()}
	}
	return side{median: exclusiveQuantile(vs.sorted(), 0.5), spread: spread(vs), n: len(vs)}
}

// failedShare is operations failed over attempted, across runs.
func failedShare(runs []*result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians, the ratio new over old with its base, and the bound, and
// returns errRegression when any metric worsened past its bound or a
// workload's failed share rose. A pairing whose recorded run-to-run
// spread exceeds the bound on either side is marked unresolved: the runs
// cannot tell a change that size from noise, in either direction.
func compareFiles(out io.Writer, oldList, newList string) error {
	oldHost, oldRuns, err := loadRuns(oldList)
	if err != nil {
		return err
	}
	newHost, newRuns, err := loadRuns(newList)
	if err != nil {
		return err
	}
	if !sameHost(oldHost, newHost) {
		return fmt.Errorf("the two sides were recorded on different host shapes (%+v, %+v): their numbers do not compare", oldHost, newHost)
	}
	fmt.Fprintf(out, "old: commit %s, new: commit %s (nproc=%d GOMAXPROCS=%d %s)\n",
		oldHost.Commit, newHost.Commit, oldHost.NProc, oldHost.GOMAXPROCS, oldHost.Go)
	fmt.Fprintf(out, "%-14s %-18s %14s %14s %22s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	regressed := false
	for _, def := range workloads {
		o, n := oldRuns[def.name], newRuns[def.name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(out, "%-14s missing on one side (old %d runs, new %d)\n", def.name, len(o), len(n))
			continue
		}
		for _, md := range endToEnd {
			so, sn := summarize(o, md.Name), summarize(n, md.Name)
			ratio := sn.median / so.median
			worse := ratio - 1
			if md.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case so.spread > md.Bound || sn.spread > md.Bound:
				verdict = fmt.Sprintf("unresolved (spread old %.3f, new %.3f)", so.spread, sn.spread)
			case worse > md.Bound:
				verdict = "REGRESSION"
				regressed = true
			case math.IsNaN(so.spread) || math.IsNaN(sn.spread):
				verdict = "ok (one run a side: spread unknown)"
			}
			fmt.Fprintf(out, "%-14s %-18s %14.6g %14.6g %8.4f of %-10.6g %7.2f  %s\n",
				def.name, md.Name, so.median, sn.median, ratio, so.median, md.Bound, verdict)
		}
		if fo, fn := failedShare(o), failedShare(n); fn > fo {
			fmt.Fprintf(out, "%-14s failed share rose from %.6f to %.6f: REGRESSION\n", def.name, fo, fn)
			regressed = true
		}
	}
	if regressed {
		return errRegression
	}
	return nil
}
