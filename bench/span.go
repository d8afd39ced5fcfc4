package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call. The spans of one control cycle, failure event, round chunk
// or publish share an ID; Parent is the index of the span that caused this
// one in the same tracer, or -1.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one goroutine in memory; they are written out
// when the run ends. A nil tracer records nothing, so the same measuring
// code serves the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// merge appends o's spans, re-basing their parent indices.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// durations returns the length of every span called name, in the unit
// given as a number of nanoseconds (1e3 for µs, 1e6 for ms).
func (t *tracer) durations(name string, unit float64) series {
	var out series
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/unit)
		}
	}
	return out
}

// writeJSONL writes one span per line, each with its index, so Parent can
// be resolved by a reader; workload labels the lines of this run.
func (t *tracer) writeJSONL(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		line := struct {
			Workload string `json:"workload"`
			Index    int    `json:"i"`
			span
		}{workload, i, s}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
