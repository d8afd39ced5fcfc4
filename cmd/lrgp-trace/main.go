// Command lrgp-trace analyzes a distributed-runtime flight-recorder
// event log (the JSONL written by dist.Cluster.WriteEvents, lrgp-broker
// -dist-events, or a stall post-mortem dump) and renders the merged
// cross-agent view: the per-round timeline, the straggler ranking
// against each communicating component's round frontier, the loss
// hotspots (rounds that needed resend chirps), and the effective
// staleness distribution actually observed at the agents' sends.
//
// Usage:
//
//	lrgp-trace -events events.jsonl [-top 10] [-csv]
//
// -events - reads the log from stdin. -top bounds the straggler and
// loss-hotspot tables; the round timeline and staleness distribution
// are always complete. -csv emits every table as CSV for downstream
// tooling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "lrgp-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, stdin io.Reader) error {
	fs := flag.NewFlagSet("lrgp-trace", flag.ContinueOnError)
	var (
		events = fs.String("events", "", "flight-recorder event log (JSONL) to analyze; - reads stdin")
		top    = fs.Int("top", 10, "rows in the straggler and loss-hotspot tables")
		csv    = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *top < 0 {
		return fmt.Errorf("-top %d: want 0 or more", *top)
	}
	if *events == "" {
		return fmt.Errorf("-events is required (path to a JSONL event log, or - for stdin)")
	}

	r := stdin
	if *events != "-" {
		f, err := os.Open(*events)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	recs, err := dist.ReadEventLog(r)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("event log is empty")
	}
	a := dist.Analyze(recs)

	emit := func(t *trace.Table) {
		if *csv {
			t.RenderCSV(out)
		} else {
			t.Render(out)
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "%d events from %d agents; %d rounds over %v; %d resend chirps, %d stall(s)\n\n",
		len(recs), len(a.Agents), a.MaxRound, time.Duration(a.SpanNanos).Round(time.Millisecond),
		a.TotalResends, a.Stalls)

	tl := trace.NewTable("round timeline", "round", "sends", "recvs", "resends", "start_ms", "window_ms")
	for _, rs := range a.Rounds {
		tl.Addf(rs.Round, rs.Sends, rs.Recvs, rs.Resends,
			fmt.Sprintf("%.2f", float64(rs.FirstNanos)/1e6),
			fmt.Sprintf("%.2f", float64(rs.LastNanos-rs.FirstNanos)/1e6))
	}
	emit(tl)

	st := trace.NewTable("stragglers (time spent >1 round behind the component frontier)",
		"agent", "rounds", "max_lag", "chirps", "behind_ms")
	for i, ag := range a.Agents {
		if i >= *top {
			break
		}
		st.Addf(ag.Agent, fmt.Sprintf("%d..%d", ag.FirstRound, ag.LastRound),
			ag.MaxLag, ag.Chirps, fmt.Sprintf("%.2f", float64(ag.BehindNanos)/1e6))
	}
	emit(st)

	// Loss hotspots: the rounds that needed the most repair traffic.
	// Chirps re-announce a round exactly when its frames failed to make
	// progress, so per-round resend counts localize where loss hurt.
	hot := make([]dist.RoundSummary, 0, len(a.Rounds))
	for _, rs := range a.Rounds {
		if rs.Resends > 0 {
			hot = append(hot, rs)
		}
	}
	slices.SortStableFunc(hot, func(x, y dist.RoundSummary) int { return y.Resends - x.Resends })
	ht := trace.NewTable("loss hotspots (rounds by resend chirps)", "round", "resends", "sends", "recvs")
	for i, rs := range hot {
		if i >= *top {
			break
		}
		ht.Addf(rs.Round, rs.Resends, rs.Sends, rs.Recvs)
	}
	if len(hot) == 0 {
		ht.Add("(none)", "0", "", "")
	}
	emit(ht)

	lags := make([]int, 0, len(a.StalenessDist))
	total := 0
	for lag, n := range a.StalenessDist {
		lags = append(lags, lag)
		total += n
	}
	slices.Sort(lags)
	sd := trace.NewTable("effective staleness (input lag observed at each send)", "lag_rounds", "sends", "share")
	for _, lag := range lags {
		n := a.StalenessDist[lag]
		sd.Addf(lag, n, fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total)))
	}
	emit(sd)
	return nil
}
