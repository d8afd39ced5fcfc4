package experiments

import (
	"runtime"
	"testing"
)

// TestScalingRestoresGOMAXPROCS: X9 builds each row's engine under its own
// GOMAXPROCS — which sets the row's shard budget, two shards per proc, so
// metro-small runs serial at 1 and on 4, 8 and 16 shards at 2, 4 and 8 —
// and hands the caller's setting back.
func TestScalingRestoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	res, err := ScalingExperiment(Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Errorf("GOMAXPROCS is %d after X9, want the caller's 3", got)
	}
	want := []ScalingRow{{GOMAXPROCS: 1, Mode: "serial", Shards: 1}, {GOMAXPROCS: 2, Mode: "sharded", Shards: 4},
		{GOMAXPROCS: 4, Mode: "sharded", Shards: 8}, {GOMAXPROCS: 8, Mode: "sharded", Shards: 16}}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for k, r := range res.Rows {
		if r.GOMAXPROCS != want[k].GOMAXPROCS || r.Mode != want[k].Mode || r.Shards != want[k].Shards {
			t.Errorf("row %d: GOMAXPROCS %d %s on %d shards, want %d %s on %d",
				k, r.GOMAXPROCS, r.Mode, r.Shards, want[k].GOMAXPROCS, want[k].Mode, want[k].Shards)
		}
	}
}
