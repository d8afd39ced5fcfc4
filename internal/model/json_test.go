package model

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/utility"
)

func TestProblemJSONRoundTrip(t *testing.T) {
	p := twoNodeProblem()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Problem
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if err := Validate(&back); err != nil {
		t.Fatalf("round-tripped problem invalid: %v", err)
	}
	if !reflect.DeepEqual(p.Flows, back.Flows) {
		t.Errorf("flows: got %+v, want %+v", back.Flows, p.Flows)
	}
	if !reflect.DeepEqual(p.Nodes, back.Nodes) {
		t.Errorf("nodes: got %+v, want %+v", back.Nodes, p.Nodes)
	}
	if !reflect.DeepEqual(p.Links, back.Links) {
		t.Errorf("links: got %+v, want %+v", back.Links, p.Links)
	}
	if len(back.Classes) != len(p.Classes) {
		t.Fatalf("classes: got %d, want %d", len(back.Classes), len(p.Classes))
	}
	for j := range p.Classes {
		if back.Classes[j].Utility != p.Classes[j].Utility {
			t.Errorf("class %d utility: got %#v, want %#v", j, back.Classes[j].Utility, p.Classes[j].Utility)
		}
	}

	// The objective value must survive the round trip exactly.
	a := Allocation{Rates: []float64{10, 25}, Consumers: []int{2, 1, 3}}
	if got, want := TotalUtility(&back, a), TotalUtility(p, a); got != want {
		t.Errorf("utility after round trip = %g, want %g", got, want)
	}
}

func TestProblemMarshalRejectsForeignUtility(t *testing.T) {
	p := twoNodeProblem()
	p.Classes[0].Utility = foreignUtility{}
	if _, err := json.Marshal(p); err == nil {
		t.Error("Marshal accepted a non-serializable utility")
	}
}

func TestProblemUnmarshalRejectsBadUtility(t *testing.T) {
	bad := []byte(`{
		"flows": [{"id":0,"source":0,"rateMin":1,"rateMax":10}],
		"nodes": [{"id":0,"capacity":100,"flowCost":{"0":1}}],
		"classes": [{"id":0,"flow":0,"node":0,"maxConsumers":1,
			"costPerConsumer":1,"utility":{"kind":"nope","scale":1}}]
	}`)
	var p Problem
	if err := json.Unmarshal(bad, &p); err == nil {
		t.Error("Unmarshal accepted an unknown utility kind")
	}
}

// TestProblemJSONRoundTripProperty fuzzes the round trip across random
// workloads: serialize, parse, and compare the objective on a shared
// allocation.
func TestProblemJSONRoundTripProperty(t *testing.T) {
	// The workload package depends on model, so random instances are
	// constructed by hand here.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		nFlows := 1 + rng.Intn(4)
		nNodes := 1 + rng.Intn(3)
		p := &Problem{Name: "fuzz"}
		for b := 0; b < nNodes; b++ {
			p.Nodes = append(p.Nodes, Node{
				ID: NodeID(b), Capacity: 1000 + rng.Float64()*1e6,
			})
		}
		for i := 0; i < nFlows; i++ {
			rmin := 1 + rng.Float64()*10
			p.Flows = append(p.Flows, Flow{
				ID: FlowID(i), Source: NodeID(rng.Intn(nNodes)),
				RateMin: rmin, RateMax: rmin + rng.Float64()*1000,
			})
			nClasses := 1 + rng.Intn(3)
			for k := 0; k < nClasses; k++ {
				b := NodeID(rng.Intn(nNodes))
				p.Nodes[b].FlowCost = p.Nodes[b].FlowCost.With(FlowID(i), 1+rng.Float64()*5)
				var fn utility.Function
				switch rng.Intn(3) {
				case 0:
					fn = utility.NewLog(1 + rng.Float64()*100)
				case 1:
					fn = utility.NewPower(1+rng.Float64()*100, 0.25+rng.Float64()*0.5)
				default:
					fn = utility.Hyperbolic{Scale: 1 + rng.Float64()*100, HalfRate: 1 + rng.Float64()*50}
				}
				p.Classes = append(p.Classes, Class{
					ID: ClassID(len(p.Classes)), Flow: FlowID(i), Node: b,
					MaxConsumers: rng.Intn(500), CostPerConsumer: 1 + rng.Float64()*30,
					Utility: fn,
				})
			}
			// The flow must reach its source.
			if _, ok := p.Nodes[p.Flows[i].Source].FlowCost.Get(FlowID(i)); !ok {
				p.Nodes[p.Flows[i].Source].FlowCost = p.Nodes[p.Flows[i].Source].FlowCost.With(FlowID(i), 1)
			}
		}
		if err := Validate(p); err != nil {
			t.Fatalf("trial %d: fuzz workload invalid: %v", trial, err)
		}

		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var back Problem
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		a := NewAllocation(p)
		for i := range a.Rates {
			a.Rates[i] = p.Flows[i].RateMin
		}
		for j := range a.Consumers {
			a.Consumers[j] = p.Classes[j].MaxConsumers / 2
		}
		if got, want := TotalUtility(&back, a), TotalUtility(p, a); got != want {
			t.Fatalf("trial %d: utility after round trip %g != %g", trial, got, want)
		}
	}
}

type foreignUtility struct{}

func (foreignUtility) Value(r float64) float64 { return r }
func (foreignUtility) Deriv(float64) float64   { return 1 }
func (foreignUtility) Name() string            { return "foreign" }

var _ utility.Function = foreignUtility{}
