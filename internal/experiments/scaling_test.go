package experiments

import (
	"runtime"
	"testing"
)

// TestScalingRestoresGOMAXPROCS: X9 builds each row's engine under its own
// GOMAXPROCS — the row's shard budget, so metro-small runs serial at 1 and
// sharded above — and hands the caller's setting back.
func TestScalingRestoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	res, err := ScalingExperiment(Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Errorf("GOMAXPROCS is %d after X9, want the caller's 3", got)
	}
	want := []ScalingRow{{GOMAXPROCS: 1, Mode: "serial"}, {GOMAXPROCS: 2, Mode: "sharded"},
		{GOMAXPROCS: 4, Mode: "sharded"}, {GOMAXPROCS: 8, Mode: "sharded"}}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for k, r := range res.Rows {
		if r.GOMAXPROCS != want[k].GOMAXPROCS || r.Mode != want[k].Mode {
			t.Errorf("row %d: GOMAXPROCS %d %s, want %d %s", k, r.GOMAXPROCS, r.Mode, want[k].GOMAXPROCS, want[k].Mode)
		}
	}
}
