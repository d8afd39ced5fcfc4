package workload

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
)

// TestMetroDeterministic: the same seed must produce the byte-identical
// problem across runs and across GOMAXPROCS settings — generation is
// sequential from one seeded source, so parallelism can play no part, and
// this test pins that.
func TestMetroDeterministic(t *testing.T) {
	cfg := MetroConfig{Pods: 6, FlowsPerPod: 4, NodesPerPod: 20, ClassesPerFlow: 8}

	first := MetroSized(cfg)
	if err := model.Validate(first); err != nil {
		t.Fatalf("metro slice invalid: %v", err)
	}

	prev := runtime.GOMAXPROCS(0)
	for _, procs := range []int{1, 8, prev} {
		runtime.GOMAXPROCS(procs)
		again := MetroSized(cfg)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("GOMAXPROCS=%d: metro build differs from first build", procs)
		}
	}

	small := MetroSmall()
	if !reflect.DeepEqual(small, MetroSmall()) {
		t.Fatal("MetroSmall not deterministic across builds")
	}
	if err := model.Validate(small); err != nil {
		t.Fatalf("MetroSmall invalid: %v", err)
	}
}

// TestMetroShape pins the advertised scale and the structural properties
// the engine's component sharding and the benchmarks rely on.
func TestMetroShape(t *testing.T) {
	p := MetroSmall()
	if got, want := len(p.Flows), 240; got != want {
		t.Errorf("MetroSmall flows = %d, want %d", got, want)
	}
	if got, want := len(p.Nodes), 1200; got != want {
		t.Errorf("MetroSmall nodes = %d, want %d", got, want)
	}
	if got, want := len(p.Classes), 9600; got != want {
		t.Errorf("MetroSmall classes = %d, want %d", got, want)
	}
	if got, want := len(p.Links), 240; got != want {
		t.Errorf("MetroSmall links = %d, want %d", got, want)
	}

	// Pods must stay independent: every flow's nodes, classes and links
	// inside its own pod's node range.
	const nodesPerPod, flowsPerPod = 50, 10
	ix := model.NewIndex(p)
	for i := range p.Flows {
		pod := i / flowsPerPod
		lo, hi := model.NodeID(pod*nodesPerPod), model.NodeID((pod+1)*nodesPerPod)
		for _, b := range ix.NodesByFlow(model.FlowID(i)) {
			if b < lo || b >= hi {
				t.Fatalf("flow %d reaches node %d outside pod [%d,%d)", i, b, lo, hi)
			}
		}
	}
	for _, c := range p.Classes {
		pod := int(c.Flow) / flowsPerPod
		if int(c.Node) < pod*nodesPerPod || int(c.Node) >= (pod+1)*nodesPerPod {
			t.Fatalf("class %d attached at node %d outside its pod %d", c.ID, c.Node, pod)
		}
	}

	// Capacity heterogeneity: hot pods (every 4th) tight, cold pods roomy.
	hotMax, coldMin := 0.0, 0.0
	for b, n := range p.Nodes {
		if (b/nodesPerPod)%4 == 0 {
			if n.Capacity > hotMax {
				hotMax = n.Capacity
			}
		} else if coldMin == 0 || n.Capacity < coldMin {
			coldMin = n.Capacity
		}
	}
	if hotMax >= coldMin {
		t.Errorf("hot pod capacity %g not below cold pod capacity %g", hotMax, coldMin)
	}
}

// TestMetroFullScale pins the headline numbers of the full preset. The
// build costs a few seconds and a few hundred MB, so -short skips it.
func TestMetroFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full metro build in -short mode")
	}
	p := Metro()
	if got := len(p.Flows); got < 10_000 {
		t.Errorf("metro flows = %d, want >= 10000", got)
	}
	if got := len(p.Nodes); got < 100_000 {
		t.Errorf("metro nodes = %d, want >= 100000", got)
	}
	if got := len(p.Classes); got < 1_000_000 {
		t.Errorf("metro classes = %d, want >= 1000000", got)
	}
	if err := model.Validate(p); err != nil {
		t.Fatalf("metro invalid: %v", err)
	}
}

// TestParseMetro: the CLI names resolve to the presets.
func TestParseMetro(t *testing.T) {
	p, err := Parse("metro-small", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != 240 {
		t.Errorf("metro-small flows = %d, want 240", len(p.Flows))
	}
}
