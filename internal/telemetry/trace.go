package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// IterationRecord is one structured LRGP iteration in a JSONL trace: the
// full optimizer state needed to regenerate the paper's figures (utility
// and price series) and to replay convergence detection offline. Slices
// are written in index order (flow i, class j, node b, link l of the
// problem the trace was recorded against).
type IterationRecord struct {
	// Iteration is 1-based, matching core.StepResult.
	Iteration int `json:"iter"`
	// Utility is the objective value after the iteration; the sequence
	// of Utility values across records is exactly the series fed to the
	// convergence detector.
	Utility float64 `json:"utility"`
	// MaxNodeOverload and MaxLinkOverload mirror core.StepResult.
	MaxNodeOverload float64 `json:"maxNodeOverload"`
	MaxLinkOverload float64 `json:"maxLinkOverload"`
	// StageNanos holds the rate/admission/price stage wall times,
	// as in core.StepResult.StageNanos. All zero when the
	// recording engine ran without telemetry.
	StageNanos [3]int64 `json:"stageNanos"`
	// Rates and Consumers are the post-iteration allocation.
	Rates     []float64 `json:"rates,omitempty"`
	Consumers []int     `json:"consumers,omitempty"`
	// NodePrices and LinkPrices are the post-iteration price vectors.
	NodePrices []float64 `json:"nodePrices,omitempty"`
	LinkPrices []float64 `json:"linkPrices,omitempty"`
	// AdmissionDelta is the L1 distance between this iteration's and
	// the previous iteration's consumer populations — the admission
	// churn the paper's enactment threshold exists to dampen.
	AdmissionDelta int `json:"admissionDelta"`
	// Converged reports whether the 0.1% amplitude rule had been met by
	// the end of this iteration.
	Converged bool `json:"converged,omitempty"`
}

// TraceWriter writes IterationRecords as JSON Lines. It buffers; call
// Flush (or Close) before reading the output elsewhere. Not safe for
// concurrent use — traces are recorded from the single-threaded
// iteration loop.
type TraceWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewTraceWriter returns a TraceWriter over w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	return &TraceWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a single JSON line.
func (t *TraceWriter) Write(rec *IterationRecord) error {
	return t.enc.Encode(rec)
}

// Flush writes any buffered records to the underlying writer.
func (t *TraceWriter) Flush() error {
	return t.bw.Flush()
}

// ReadTrace decodes a JSONL iteration trace, returning every record in
// order. Blank lines are skipped; a malformed line fails with its line
// number.
func ReadTrace(r io.Reader) ([]IterationRecord, error) {
	return ReadJSONL[IterationRecord](r, "telemetry: trace")
}

// ReadJSONL decodes one JSON value of type T per line of r, in order.
// Blank lines are skipped; a line that does not decode, or that the
// reader fails on, fails the read with its line number after prefix.
func ReadJSONL[T any](r io.Reader, prefix string) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", prefix, line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s line %d: %w", prefix, line+1, err)
	}
	return out, nil
}
