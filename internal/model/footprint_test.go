package model_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/utility"
)

// linkFailureProblem is the problem of the link_failure benchmark
// (bench/inputs.go, seed 1) as a Router publishes it: 200 flows of three
// classes over a 10,000-node RandomTopologyHetero with ≈60,000 directed
// links, of which about 3,000 links and under 3,000 nodes carry a flow.
func linkFailureProblem(t *testing.T) *model.Problem {
	const nodes = 10_000
	rng := rand.New(rand.NewSource(1))
	tp := overlay.RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = 2000 + rng.Float64()*2000
	}
	flows := make([]overlay.FlowSpec, 200)
	for fi := range flows {
		fs := overlay.FlowSpec{
			Name: "f", Source: model.NodeID(rng.Intn(nodes)),
			RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2,
		}
		for s := 0; s < 3; s++ {
			fs.Classes = append(fs.Classes, overlay.ClassSpec{
				Name: "c", Node: model.NodeID(rng.Intn(nodes)),
				MaxConsumers: 10 + rng.Intn(50), CostPerConsumer: 5,
				Utility: utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	r, err := overlay.NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	return r.Problem()
}

// indexHeld returns the live heap bytes a NewIndex of p keeps after a GC.
func indexHeld(p *model.Problem) int64 {
	// Two collections: the first leaves sync.Pool victims behind.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ix := model.NewIndex(p)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(ix)
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}

// TestNewIndexFootprint: what NewIndex keeps follows the problem's
// incidences, not its graph. A link no flow crosses adds at most one 8-byte
// word, and a node no flow crosses and no class attaches at at most 16
// bytes (each bound allows one 8 KB page per per-element array for the
// allocator's rounding of large objects). On the link_failure problem that
// leaves ≈0.6 MB for the 69,964 elements' words and ≈0.6 MB for the 5,681
// views where a flow crosses and the per-flow lists: at most 1.3 MB of live
// heap after a GC (3.98 MB with a view for every element).
func TestNewIndexFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const page = 8192
	p := linkFailureProblem(t)
	base := indexHeld(p)
	t.Logf("NewIndex holds %.3f MB over %d nodes and %d links", float64(base)/1e6, len(p.Nodes), len(p.Links))
	if base > 1_300_000 {
		t.Errorf("NewIndex on the link_failure problem holds %d live heap bytes, want at most 1,300,000", base)
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
	perLink := float64(indexHeld(&links)-base-page) / extraLinks
	perNode := float64(indexHeld(&nodes)-base-2*page) / extraNodes
	t.Logf("an idle link adds %.2f B, an idle node %.2f B", perLink, perNode)
	if perLink > 8 {
		t.Errorf("each idle link adds %.2f live heap bytes to an index, want at most 8", perLink)
	}
	if perNode > 16 {
		t.Errorf("each idle node adds %.2f live heap bytes to an index, want at most 16", perNode)
	}
}

// TestCostRecordFootprint: on the link_failure problem, the cost records
// of the 5,681 elements a flow crosses (6,398 (element, flow) pairs) hold
// at most 96 live heap bytes per crossed element — a 48-byte record plus
// 16 bytes per pair, where a map per element held ≈187 — and NewIndex,
// which adopts the records instead of copying them, holds at most 0.95 MB.
func TestCostRecordFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := linkFailureProblem(t)
	crossed, pairs := 0, 0
	for _, n := range p.Nodes {
		if n.FlowCost != nil {
			crossed++
			pairs += n.FlowCost.Len()
		}
	}
	for _, l := range p.Links {
		if l.FlowCost != nil {
			crossed++
			pairs += l.FlowCost.Len()
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for b := range p.Nodes {
		p.Nodes[b].FlowCost = nil
	}
	for l := range p.Links {
		p.Links[l].FlowCost = nil
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(p)
	per := float64(int64(m0.HeapAlloc)-int64(m1.HeapAlloc)) / float64(crossed)
	t.Logf("cost records hold %.1f B per crossed element (%d elements, %d pairs)", per, crossed, pairs)
	if per > 96 {
		t.Errorf("cost records hold %.1f live heap bytes per crossed element, want at most 96", per)
	}

	p = linkFailureProblem(t)
	if held := indexHeld(p); held > 950_000 {
		t.Errorf("NewIndex on the link_failure problem holds %d live heap bytes, want at most 950,000", held)
	}
}
