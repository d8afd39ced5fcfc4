package model

import (
	"slices"
	"testing"
)

// TestCostsRecord: a record is its sorted flows with aligned costs, the
// nil record is the empty one, and With and Without leave the record they
// are called on as it was.
func TestCostsRecord(t *testing.T) {
	var none *Costs
	if none.Len() != 0 || none.Flows() != nil || none.Values() != nil {
		t.Fatal("the nil record is not empty")
	}
	if _, ok := none.Get(0); ok {
		t.Fatal("the nil record has flow 0")
	}
	if CostsOf(nil) != nil || CostsOf(map[FlowID]float64{}) != nil || NewCosts(nil, nil) != nil {
		t.Fatal("an empty record is not nil")
	}

	c := CostsOf(map[FlowID]float64{7: 1.5, 2: 3, 11: 0.25})
	if !slices.Equal(c.Flows(), []FlowID{2, 7, 11}) || !slices.Equal(c.Values(), []float64{3, 1.5, 0.25}) {
		t.Fatalf("CostsOf: flows %v costs %v", c.Flows(), c.Values())
	}
	if v, ok := c.Get(7); !ok || v != 1.5 {
		t.Fatalf("Get(7) = %g, %v", v, ok)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("Get(3) found a flow the record lacks")
	}

	for _, tc := range []struct {
		name  string
		got   *Costs
		flows []FlowID
		costs []float64
	}{
		{"insert first", c.With(1, 9), []FlowID{1, 2, 7, 11}, []float64{9, 3, 1.5, 0.25}},
		{"insert inside", c.With(8, 9), []FlowID{2, 7, 8, 11}, []float64{3, 1.5, 9, 0.25}},
		{"insert last", c.With(12, 9), []FlowID{2, 7, 11, 12}, []float64{3, 1.5, 0.25, 9}},
		{"replace", c.With(7, 9), []FlowID{2, 7, 11}, []float64{3, 9, 0.25}},
		{"into nil", none.With(4, 2), []FlowID{4}, []float64{2}},
		{"drop first", c.Without(2), []FlowID{7, 11}, []float64{1.5, 0.25}},
		{"drop inside", c.Without(7), []FlowID{2, 11}, []float64{3, 0.25}},
		{"drop last", c.Without(11), []FlowID{2, 7}, []float64{3, 1.5}},
	} {
		if !slices.Equal(tc.got.Flows(), tc.flows) || !slices.Equal(tc.got.Values(), tc.costs) {
			t.Errorf("%s: flows %v costs %v, want %v %v", tc.name, tc.got.Flows(), tc.got.Values(), tc.flows, tc.costs)
		}
	}
	if !slices.Equal(c.Flows(), []FlowID{2, 7, 11}) || !slices.Equal(c.Values(), []float64{3, 1.5, 0.25}) {
		t.Fatalf("With or Without changed the record: flows %v costs %v", c.Flows(), c.Values())
	}
	if c.Without(5) != c {
		t.Error("Without of an absent flow is not the record itself")
	}
	if one := none.With(4, 2); one.Without(4) != nil {
		t.Error("Without of the last flow is not nil")
	}

	for name, build := range map[string]func(){
		"lengths":    func() { NewCosts([]FlowID{1, 2}, []float64{1}) },
		"descending": func() { NewCosts([]FlowID{2, 1}, []float64{1, 1}) },
		"duplicate":  func() { NewCosts([]FlowID{1, 1}, []float64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCosts accepted %s that do not match", name)
				}
			}()
			build()
		}()
	}
}

// TestValidateReportsTheLowestFlow: a record with several bad entries is
// reported by its lowest flow, however the map it was built from iterates.
func TestValidateReportsTheLowestFlow(t *testing.T) {
	var first string
	for trial := 0; trial < 200; trial++ {
		p := twoNodeProblem()
		p.Flows = append(p.Flows, Flow{ID: 2, Source: 0, RateMin: 1, RateMax: 10}, Flow{ID: 3, Source: 0, RateMin: 1, RateMax: 10})
		p.Nodes[1].FlowCost = CostsOf(map[FlowID]float64{0: 3, 1: 4, 2: -1, 3: 0, 9: 1})
		err := Validate(p)
		if err == nil {
			t.Fatal("Validate accepted costs -1, 0 and an unknown flow")
		}
		if trial == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("trial %d: Validate said %q, trial 0 said %q", trial, err, first)
		}
	}
	if want := "model: invalid problem: node 1 flow 2 cost -1"; first != want {
		t.Errorf("Validate said %q, want %q", first, want)
	}
}
