package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	recs := []IterationRecord{
		{
			Iteration: 1, Utility: 1000.5, MaxNodeOverload: -2, MaxLinkOverload: 0.5,
			StageNanos: [3]int64{100, 200, 300},
			Rates:      []float64{10, 20}, Consumers: []int{3, 0, 7},
			NodePrices: []float64{0.1}, LinkPrices: []float64{0.001, 0.002},
			AdmissionDelta: 10,
		},
		{Iteration: 2, Utility: 1100, AdmissionDelta: 0, Converged: true},
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	// One JSON object per line.
	if lines := strings.Count(strings.TrimRight(buf.String(), "\n"), "\n") + 1; lines != 2 {
		t.Errorf("wrote %d lines, want 2:\n%s", lines, buf.String())
	}

	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d records, want 2", len(got))
	}
	r0 := got[0]
	if r0.Iteration != 1 || r0.Utility != 1000.5 || r0.MaxNodeOverload != -2 ||
		r0.StageNanos != [3]int64{100, 200, 300} || r0.AdmissionDelta != 10 {
		t.Errorf("record 0 = %+v", r0)
	}
	if len(r0.Rates) != 2 || r0.Rates[1] != 20 || len(r0.Consumers) != 3 || r0.Consumers[2] != 7 {
		t.Errorf("record 0 allocation = %+v", r0)
	}
	if !got[1].Converged || got[1].Rates != nil {
		t.Errorf("record 1 = %+v", got[1])
	}
}

func TestReadTraceSkipsBlankLines(t *testing.T) {
	in := "{\"iter\":1,\"utility\":5}\n\n{\"iter\":2,\"utility\":6}\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Utility != 6 {
		t.Errorf("decoded %+v", got)
	}
}

func TestReadTraceReportsMalformedLine(t *testing.T) {
	in := "{\"iter\":1}\nnot json\n"
	if _, err := ReadTrace(strings.NewReader(in)); err == nil {
		t.Error("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name the line: %v", err)
	}
}
