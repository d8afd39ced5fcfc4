package experiments

import (
	"strings"
	"testing"
)

func TestChurnExperimentLink(t *testing.T) {
	res, err := ChurnExperiment(Options{}, ChurnConfig{
		TopoNodes: 300, Flows: 6, Events: 4, FailEvery: 200, ColdBudget: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 4 {
		t.Fatalf("ran %d events, want 4", len(res.Events))
	}
	for k, e := range res.Events {
		wantKind := "link-fail"
		if k%2 == 1 {
			wantKind = "link-restore"
		}
		if e.Kind != wantKind {
			t.Errorf("event %d kind = %q, want %q", k, e.Kind, wantKind)
		}
		// Failures re-trace the indexed flows (the event list only fails
		// loaded links), restores the flows that can reach the healed
		// element — possibly none.
		if e.Affected < 0 || e.Affected > res.Config.Flows || e.Rerouted > e.Affected {
			t.Errorf("event %d rerouted %d of %d affected of %d flows", k, e.Rerouted, e.Affected, res.Config.Flows)
		}
		if e.Kind == "link-fail" && e.Affected == 0 {
			t.Errorf("event %d failed a link no flow used", k)
		}
		if !e.WarmConverged {
			t.Errorf("event %d warm re-solve did not converge within %d iterations", k, res.Config.FailEvery)
		}
	}
	if res.Speedup <= 0 {
		t.Errorf("speedup = %g", res.Speedup)
	}

	table := RenderChurn(res)
	var sb strings.Builder
	table.Render(&sb)
	if !strings.Contains(sb.String(), "X11: rolling link failures") {
		t.Errorf("table missing title:\n%s", sb.String())
	}
}

func TestChurnExperimentNode(t *testing.T) {
	res, err := ChurnExperiment(Options{Seed: 3}, ChurnConfig{
		TopoNodes: 300, Flows: 6, Events: 2, FailEvery: 200, FailKind: "node", ColdBudget: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 2 {
		t.Fatalf("ran %d events, want 2", len(res.Events))
	}
	if res.Events[0].Kind != "node-fail" || res.Events[1].Kind != "node-restore" {
		t.Fatalf("event kinds = %q, %q", res.Events[0].Kind, res.Events[1].Kind)
	}
}
