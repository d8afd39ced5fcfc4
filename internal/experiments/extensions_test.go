package experiments

import (
	"bytes"
	"testing"
)

func TestPruneExperiment(t *testing.T) {
	res, err := PruneExperiment(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedClasses == 0 {
		t.Fatal("stage 1 starved no class; scenario mistuned")
	}
	if res.PrunedNodeVisits <= 0 {
		t.Errorf("pruned node visits = %d, want > 0", res.PrunedNodeVisits)
	}
	if res.UtilityGain <= 0 {
		t.Errorf("utility gain = %g, want > 0 (stage1 %.0f, stage2 %.0f)",
			res.UtilityGain, res.Stage1.Result.Utility, res.Stage2.Result.Utility)
	}
}

func TestMultirateExperiment(t *testing.T) {
	rows, err := MultirateExperiment(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	hetero, base := rows[0], rows[1]
	if hetero.GainPct < 20 {
		t.Errorf("hetero gain %.2f%%, want > 20%%", hetero.GainPct)
	}
	if hetero.FastDelivery <= hetero.SlowDelivery {
		t.Errorf("delivery did not split: %g vs %g", hetero.FastDelivery, hetero.SlowDelivery)
	}
	// On the homogeneous base workload multirate must not lose.
	if base.GainPct < -2 {
		t.Errorf("base workload gain %.2f%%, want >= -2%%", base.GainPct)
	}
}

func TestGammaControllerAblation(t *testing.T) {
	rows, err := GammaControllerAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := make(map[string]GammaRow, len(rows))
	for _, r := range rows {
		byName[r.Controller] = r
	}
	refined, literal := byName["refined"], byName["literal"]

	// Both adaptive controllers converge on every shape.
	for si := 0; si < 4; si++ {
		if refined.ConvergeIters[si] < 0 {
			t.Errorf("refined did not converge on shape %d", si)
		}
		if literal.ConvergeIters[si] < 0 {
			t.Errorf("literal did not converge on shape %d", si)
		}
	}
	// The refined controller's reason to exist: faster recovery.
	if refined.RecoveryIters < 0 {
		t.Fatal("refined did not recover")
	}
	if literal.RecoveryIters > 0 && refined.RecoveryIters >= literal.RecoveryIters {
		t.Errorf("refined recovery %d not below literal %d", refined.RecoveryIters, literal.RecoveryIters)
	}
	var buf bytes.Buffer
	RenderGammaAblation(rows).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestOverheadExperiment(t *testing.T) {
	rows, err := OverheadExperiment(quick(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.MessagesPerRound < float64(r.Flows+r.Nodes) {
			t.Errorf("%s: %.1f msgs/round below the structural floor %d",
				r.Workload, r.MessagesPerRound, r.Flows+r.Nodes)
		}
		if r.BytesPerRound <= 0 {
			t.Errorf("%s: no bytes counted", r.Workload)
		}
		if r.Utility <= 0 {
			t.Errorf("%s: utility = %g", r.Workload, r.Utility)
		}
	}
	// The binary payloads are >= 3x smaller than the JSON ones this run
	// moved before they were deleted (3,532 bytes/round on 6f/3n at commit
	// 525a158, EXPERIMENTS.md X5).
	if const6f3n := 3532.0; const6f3n < 3*rows[0].BytesPerRound {
		t.Errorf("binary saves only %.2fx bytes/round (json %.0f, binary %.0f)",
			const6f3n/rows[0].BytesPerRound, const6f3n, rows[0].BytesPerRound)
	}
	// Message volume grows with system size.
	if rows[2].MessagesPerRound <= rows[0].MessagesPerRound {
		t.Errorf("24f/12n msgs/round %.1f not above base %.1f",
			rows[2].MessagesPerRound, rows[0].MessagesPerRound)
	}

	var buf bytes.Buffer
	RenderOverhead(rows).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestDistRuntimeExperiment(t *testing.T) {
	rows, err := DistRuntimeExperiment(quick(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byConfig := make(map[string]RuntimeRow, len(rows))
	for _, r := range rows {
		if r.BytesPerRound <= 0 || r.FramesPerRound <= 0 {
			t.Errorf("%s: empty meters (%.1f frames, %.0f bytes)", r.Config, r.FramesPerRound, r.BytesPerRound)
		}
		if r.Utility <= 0 {
			t.Errorf("%s: utility = %g", r.Config, r.Utility)
		}
		byConfig[r.Config] = r
	}
	// Measured, not asserted by construction: at 12 hosts a wire frame
	// carries >= 2.5 agent messages, on that run's own counters (the bound
	// and why it is what it is: dist.TestBatchFrameReduction).
	if r := byConfig["hosts=12"]; r.MessagesPerRound < 2.5*r.FramesPerRound {
		t.Errorf("12 hosts: %.1f messages/round in %.1f frames/round, want >= 2.5 a frame", r.MessagesPerRound, r.FramesPerRound)
	}
	for _, label := range []string{"hosts=node", "hosts=12"} {
		if byConfig[label].RoundsToConverge == 0 {
			t.Errorf("%s: never reached the 1%% band", label)
		}
	}
	// K=1 lets co-located agents trade rounds among themselves, and a
	// gateway that holds back what they send elsewhere meanwhile feeds the
	// rest of the cluster stale values: 26-28 rounds with the flusher woken
	// by the first staged byte or by the gateway's rule, 48 to never in 5
	// of 10 runs without the rule's second-step wake. K=2 and K=4 are not
	// bounded here: in 60 rounds they can miss the band either way.
	if r := byConfig["hosts=12 K=1"]; r.RoundsToConverge == 0 || r.RoundsToConverge > 40 {
		t.Errorf("hosts=12 K=1: reached the 1%% band at round %d, want within 40 (0: never)", r.RoundsToConverge)
	}

	var buf bytes.Buffer
	RenderDistRuntime(rows).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}
