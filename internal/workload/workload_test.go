package workload

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

func TestBaseMatchesTable1(t *testing.T) {
	p := Base()
	if err := model.Validate(p); err != nil {
		t.Fatalf("base workload invalid: %v", err)
	}
	if got := len(p.Flows); got != 6 {
		t.Errorf("flows = %d, want 6", got)
	}
	if got := len(p.Nodes); got != 3 {
		t.Errorf("nodes = %d, want 3", got)
	}
	if got := len(p.Classes); got != 20 {
		t.Errorf("classes = %d, want 20", got)
	}

	// Class pairs share flow, n^max, rank; Table 1 row spot checks.
	wantPairs := []struct {
		flow model.FlowID
		nMax int
		rank float64
	}{
		{0, 400, 20}, {0, 800, 5}, {0, 2000, 1},
		{1, 1000, 15}, {2, 1500, 10},
		{3, 400, 30}, {3, 800, 3}, {3, 2000, 2},
		{4, 1000, 40}, {5, 1500, 100},
	}
	for pair, want := range wantPairs {
		for k := 0; k < 2; k++ {
			c := p.Classes[2*pair+k]
			if c.Flow != want.flow || c.MaxConsumers != want.nMax {
				t.Errorf("class %d: flow=%d nMax=%d, want flow=%d nMax=%d",
					c.ID, c.Flow, c.MaxConsumers, want.flow, want.nMax)
			}
			u, ok := c.Utility.(utility.Log)
			if !ok || u.Scale != want.rank {
				t.Errorf("class %d: utility %v, want rank %g log", c.ID, c.Utility, want.rank)
			}
			if c.CostPerConsumer != ConsumerCost {
				t.Errorf("class %d: G = %g, want %d", c.ID, c.CostPerConsumer, ConsumerCost)
			}
		}
		// The two classes of a pair attach at different nodes.
		if p.Classes[2*pair].Node == p.Classes[2*pair+1].Node {
			t.Errorf("pair %d: both classes at node %d", pair, p.Classes[2*pair].Node)
		}
	}

	for _, n := range p.Nodes {
		if n.Capacity != NodeCapacity {
			t.Errorf("node %d capacity = %g, want %g", n.ID, n.Capacity, float64(NodeCapacity))
		}
		for k, fid := range n.FlowCost.Flows() {
			if cost := n.FlowCost.Values()[k]; cost != FlowNodeCost {
				t.Errorf("node %d flow %d F = %g, want %d", n.ID, fid, cost, FlowNodeCost)
			}
		}
	}
	for _, f := range p.Flows {
		if f.RateMin != RateMin || f.RateMax != RateMax {
			t.Errorf("flow %d rates [%g, %g], want [%d, %d]", f.ID, f.RateMin, f.RateMax, RateMin, RateMax)
		}
	}
}

func TestBaseFlowRouting(t *testing.T) {
	// "Each flow is routed only to the nodes where its consumer classes
	// are present."
	p := Base()
	ix := model.NewIndex(p)
	for i := range p.Flows {
		fid := model.FlowID(i)
		classNodes := make(map[model.NodeID]bool)
		for _, cid := range ix.ClassesByFlow(fid) {
			classNodes[p.Classes[cid].Node] = true
		}
		reached := ix.NodesByFlow(fid)
		if len(reached) != len(classNodes) {
			t.Errorf("flow %d reaches %d nodes, classes at %d", fid, len(reached), len(classNodes))
		}
		for _, b := range reached {
			if !classNodes[b] {
				t.Errorf("flow %d routed to node %d with no classes", fid, b)
			}
		}
	}
}

func TestScaledNodeSets(t *testing.T) {
	p := Scaled(Config{NodeSetCopies: 2})
	if err := model.Validate(p); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(p.Flows) != 6 || len(p.Nodes) != 6 || len(p.Classes) != 40 {
		t.Errorf("6f/6n: flows=%d nodes=%d classes=%d", len(p.Flows), len(p.Nodes), len(p.Classes))
	}
	// Every flow must reach both node-set replicas.
	ix := model.NewIndex(p)
	for i := range p.Flows {
		nodes := ix.NodesByFlow(model.FlowID(i))
		if len(nodes) != 4 { // 2 nodes per set x 2 sets
			t.Errorf("flow %d reaches %d nodes, want 4", i, len(nodes))
		}
	}
}

func TestScaledFlowCopies(t *testing.T) {
	p := Scaled(Config{FlowCopies: 2})
	if err := model.Validate(p); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(p.Flows) != 12 || len(p.Nodes) != 6 || len(p.Classes) != 40 {
		t.Errorf("12f/6n: flows=%d nodes=%d classes=%d", len(p.Flows), len(p.Nodes), len(p.Classes))
	}
	// Flow copies are disjoint: a copy-1 flow must not reach copy-0 nodes.
	ix := model.NewIndex(p)
	for i := 6; i < 12; i++ {
		for _, b := range ix.NodesByFlow(model.FlowID(i)) {
			if b < 3 {
				t.Errorf("copy-1 flow %d reaches copy-0 node %d", i, b)
			}
		}
	}
}

func TestTable2Workloads(t *testing.T) {
	ws := Table2Workloads()
	if len(ws) != 6 {
		t.Fatalf("workload count = %d, want 6", len(ws))
	}
	wantNames := []string{
		"6f-3n-log(1+r)", "12f-6n-log(1+r)", "24f-12n-log(1+r)",
		"6f-6n-log(1+r)", "6f-12n-log(1+r)", "6f-24n-log(1+r)",
	}
	for i, w := range ws {
		if w.Name != wantNames[i] {
			t.Errorf("workload %d name = %q, want %q", i, w.Name, wantNames[i])
		}
		if err := model.Validate(w); err != nil {
			t.Errorf("workload %q invalid: %v", w.Name, err)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	shapes := Table3Shapes()
	if len(shapes) != 4 {
		t.Fatalf("shape count = %d, want 4", len(shapes))
	}
	for _, s := range shapes {
		p := Scaled(Config{Shape: s})
		if err := model.Validate(p); err != nil {
			t.Errorf("shape %v workload invalid: %v", s, err)
		}
	}
}

func TestShapeUtility(t *testing.T) {
	tests := []struct {
		shape Shape
		want  utility.Function
	}{
		{ShapeLog, utility.NewLog(7)},
		{ShapePow25, utility.NewPower(7, 0.25)},
		{ShapePow50, utility.NewPower(7, 0.5)},
		{ShapePow75, utility.NewPower(7, 0.75)},
	}
	for _, tt := range tests {
		if got := tt.shape.Utility(7); got != tt.want {
			t.Errorf("%v.Utility(7) = %#v, want %#v", tt.shape, got, tt.want)
		}
	}
}

func TestShapeString(t *testing.T) {
	if got := Shape(99).String(); got != "Shape(99)" {
		t.Errorf("unknown shape string = %q", got)
	}
	if got := ShapePow50.String(); got != "r^0.5" {
		t.Errorf("ShapePow50 string = %q", got)
	}
}

func TestRandomWorkloadsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		p := Random(rng, RandomConfig{})
		if err := model.Validate(p); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		p := Random(rng, RandomConfig{Flows: 10, Nodes: 7, ClassesPerFlow: 5, Shape: ShapePow50})
		if err := model.Validate(p); err != nil {
			t.Fatalf("big trial %d: %v", trial, err)
		}
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(9)), RandomConfig{})
	b := Random(rand.New(rand.NewSource(9)), RandomConfig{})
	if len(a.Classes) != len(b.Classes) {
		t.Fatal("different class counts from same seed")
	}
	for j := range a.Classes {
		if a.Classes[j] != b.Classes[j] {
			t.Fatalf("class %d differs between same-seed runs", j)
		}
	}
}

func TestWithLinkBottlenecks(t *testing.T) {
	p := WithLinkBottlenecks(Base(), 0.5)
	if err := model.Validate(p); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(p.Links) != 6 {
		t.Errorf("links = %d, want one per flow", len(p.Links))
	}
	for _, l := range p.Links {
		if l.Capacity != 0.5*RateMax {
			t.Errorf("link %d capacity = %g, want %g", l.ID, l.Capacity, 0.5*RateMax)
		}
		if l.FlowCost.Len() != 1 {
			t.Errorf("link %d carries %d flows, want 1", l.ID, l.FlowCost.Len())
		}
	}
	// The original problem must not be mutated.
	if len(Base().Links) != 0 {
		t.Error("Base unexpectedly has links")
	}
}

func TestTinyValidates(t *testing.T) {
	if err := model.Validate(Tiny()); err != nil {
		t.Fatalf("tiny workload invalid: %v", err)
	}
}
