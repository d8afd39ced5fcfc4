package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// linkFailureProblem is the problem of the link_failure benchmark
// (bench/inputs.go, seed 1) as a Router publishes it — the draws of
// model's test of the same name: 200 flows of three classes over a
// 10,000-node RandomTopologyHetero with 59,964 directed links, of which
// 3,006 links and 2,675 nodes carry a flow.
func linkFailureProblem(t *testing.T) *model.Problem {
	return sparseRouter(t, 1, 10_000, 200, 1e5, 1e6,
		func(rng *rand.Rand) float64 { return 2000 + rng.Float64()*2000 }).Problem()
}

// engineHeld returns the live heap bytes a NewEngine of p, its index
// included, keeps after a GC.
func engineHeld(t *testing.T, p *model.Problem) int64 {
	t.Helper()
	// Two collections: the first leaves sync.Pool victims behind.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e, err := core.NewEngine(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	e.Close()
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}

// TestNewEngineFootprint: what NewEngine keeps follows the constraints its
// plan lists, not the overlay. Beside the index's word or two (model's
// TestNewIndexFootprint) an idle link or node costs the engine only its
// 4-byte entry in the id → slot map, so an idle link adds at most 13 bytes
// and an idle node at most 18, allowing one 8 KB page per per-element array
// for the allocator's rounding of large objects (two for links, three for
// nodes). On the link_failure problem NewEngine keeps at most 2.1 MB of live
// heap after a GC (4.06 MB with dense arrays over every node and link).
func TestNewEngineFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const page = 8192
	p := linkFailureProblem(t)
	base := engineHeld(t, p)
	t.Logf("NewEngine holds %.3f MB over %d nodes and %d links", float64(base)/1e6, len(p.Nodes), len(p.Links))
	if base > 2_100_000 {
		t.Errorf("NewEngine on the link_failure problem holds %d live heap bytes, want at most 2,100,000", base)
	}

	const extraLinks, extraNodes = 60_000, 20_000
	links := *p
	links.Links = make([]model.Link, len(p.Links), len(p.Links)+extraLinks)
	copy(links.Links, p.Links)
	for k := 0; k < extraLinks; k++ {
		links.Links = append(links.Links, model.Link{ID: model.LinkID(len(links.Links)), From: 0, To: 1, Capacity: 1e5})
	}
	nodes := *p
	nodes.Nodes = make([]model.Node, len(p.Nodes), len(p.Nodes)+extraNodes)
	copy(nodes.Nodes, p.Nodes)
	for k := 0; k < extraNodes; k++ {
		nodes.Nodes = append(nodes.Nodes, model.Node{ID: model.NodeID(len(nodes.Nodes)), Capacity: 3000})
	}
	perLink := float64(engineHeld(t, &links)-base-2*page) / extraLinks
	perNode := float64(engineHeld(t, &nodes)-base-3*page) / extraNodes
	t.Logf("an idle link adds %.2f B, an idle node %.2f B", perLink, perNode)
	if perLink > 13 {
		t.Errorf("each idle link adds %.2f live heap bytes to an engine, want at most 13", perLink)
	}
	if perNode > 18 {
		t.Errorf("each idle node adds %.2f live heap bytes to an engine, want at most 18", perNode)
	}
}
