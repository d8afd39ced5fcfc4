package core_test

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/utility"
)

// The fail/heal workload of this file is the small sibling of the
// benchmark's link_failure: a few flows routed over a few hundred nodes,
// so most nodes and almost all links carry nothing, with link and node
// capacities tight enough that relays and links on the trees are priced.
// It lives in package core_test because overlay imports core.

const (
	linkfailNodes  = 300
	linkfailFlows  = 24
	linkfailEvents = 48
	// linkfailWarmup Steps run before the first event, linkfailSteps after
	// every ResetRouting.
	linkfailWarmup = 40
	linkfailSteps  = 12
)

var freeze = flag.Bool("freeze", false, "rewrite testdata/linkfail_*.bits from the running code")

// linkfailRouter routes the seeded 300-node workload: link capacities
// log-uniform on [2, 2000] and node capacities on [10, 3000], so some links
// and relays on the trees overload and hold a price.
func linkfailRouter(tb testing.TB, seed int64) *overlay.Router {
	return sparseRouter(tb, seed, linkfailNodes, linkfailFlows, 2, 2e3,
		func(rng *rand.Rand) float64 { return 10 * math.Pow(300, rng.Float64()) })
}

// sparseRouter routes nFlows seeded flows of three classes each over a
// RandomTopologyHetero of the given size — the shape bench/inputs.go gives
// link_failure. Every call builds its own topology: a Router fails and
// heals links of the topology it was given.
func sparseRouter(tb testing.TB, seed int64, nodes, nFlows int, linkCapMin, linkCapMax float64, nodeCap func(*rand.Rand) float64) *overlay.Router {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	tp := overlay.RandomTopologyHetero(rng, nodes, 2, linkCapMin, linkCapMax)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = nodeCap(rng)
	}
	flows := make([]overlay.FlowSpec, nFlows)
	for fi := range flows {
		fs := overlay.FlowSpec{
			Name:     fmt.Sprintf("f%d", fi),
			Source:   model.NodeID(rng.Intn(nodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < 3; s++ {
			fs.Classes = append(fs.Classes, overlay.ClassSpec{
				Name:            fmt.Sprintf("f%d-c%d", fi, s),
				Node:            model.NodeID(rng.Intn(nodes)),
				MaxConsumers:    10 + rng.Intn(50),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	r, err := overlay.NewRouter(tp, caps, flows)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// linkfailEvent is one step of the seeded sequence: fail a loaded link, or
// heal one that is down.
type linkfailEvent struct {
	link int
	heal bool
}

// nextLinkfailEvent draws the next event from rng given r's routing and the
// links currently down.
func nextLinkfailEvent(rng *rand.Rand, r *overlay.Router, dead []int) linkfailEvent {
	if len(dead) > 0 && rng.Intn(3) == 0 {
		return linkfailEvent{link: dead[rng.Intn(len(dead))], heal: true}
	}
	var loaded []int
	for li := 0; li < r.Topology().LinkCount(); li++ {
		if len(r.FlowsThroughLink(li)) > 0 {
			loaded = append(loaded, li)
		}
	}
	return linkfailEvent{link: loaded[rng.Intn(len(loaded))]}
}

// apply runs ev on r; ok is false when the link was some flow's only way
// through and the repair rolled back.
func (ev linkfailEvent) apply(t testing.TB, r *overlay.Router) (ok bool) {
	t.Helper()
	var err error
	if ev.heal {
		_, err = r.RestoreLink(ev.link)
	} else {
		_, err = r.RepairLink(ev.link)
	}
	if errors.Is(err, overlay.ErrNoPath) {
		return false
	}
	if err != nil {
		t.Fatalf("event %+v: %v", ev, err)
	}
	return true
}

// runLinkfailSequence drives r through the seeded sequence of
// linkfailEvents events that succeed, calling after with each one's
// 1-based number once r holds its routing and its pending delta.
func runLinkfailSequence(t testing.TB, r *overlay.Router, after func(n int, ev linkfailEvent)) {
	t.Helper()
	var dead []int
	rng := rand.New(rand.NewSource(20062))
	for n := 0; n < linkfailEvents; {
		ev := nextLinkfailEvent(rng, r, dead)
		if !ev.apply(t, r) {
			continue
		}
		n++
		if ev.heal {
			k := slices.Index(dead, ev.link)
			dead = slices.Delete(dead, k, k+1)
		} else {
			dead = append(dead, ev.link)
		}
		after(n, ev)
	}
}

// stateLine is one transcript line: the Step's utility as the hex of its
// float bits, then an FNV-1a digest of every rate, population, node price,
// link price and γ in that order.
func stateLine(e *core.Engine, utility float64) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	a := e.Allocation()
	for _, r := range a.Rates {
		put(math.Float64bits(r))
	}
	for _, n := range a.Consumers {
		put(uint64(n))
	}
	for _, vs := range [][]float64{e.NodePrices(), e.LinkPrices(), e.Gammas()} {
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x %016x", math.Float64bits(utility), h.Sum64())
}

// linkfailKinds counts what the sequence exercised: constraints that lost
// their last flow while priced, and ones that gained their first.
type linkfailKinds struct {
	pricedNodeEmptied, pricedLinkEmptied int
	nodeFirstFlow, linkFirstFlow         int
}

// loadedBefore notes, for the constraints d names, whether a flow crossed
// them under e's current (pre-ResetRouting) index and whether they hold a
// price.
type loadedBefore struct {
	nodeHad, nodePriced []bool
	linkHad, linkPriced []bool
}

func noteBefore(e *core.Engine, d model.RoutingDelta) loadedBefore {
	var lb loadedBefore
	ix, np, lp := e.Index(), e.NodePrices(), e.LinkPrices()
	for _, b := range d.Nodes {
		lb.nodeHad = append(lb.nodeHad, len(ix.FlowsByNode(b)) > 0)
		lb.nodePriced = append(lb.nodePriced, np[b] != 0)
	}
	for _, l := range d.Links {
		lb.linkHad = append(lb.linkHad, len(ix.FlowsByLink(l)) > 0)
		lb.linkPriced = append(lb.linkPriced, lp[l] != 0)
	}
	return lb
}

func (k *linkfailKinds) noteAfter(e *core.Engine, d model.RoutingDelta, lb loadedBefore) {
	ix := e.Index()
	for n, b := range d.Nodes {
		has := len(ix.FlowsByNode(b)) > 0
		if lb.nodeHad[n] && !has && lb.nodePriced[n] {
			k.pricedNodeEmptied++
		}
		if !lb.nodeHad[n] && has {
			k.nodeFirstFlow++
		}
	}
	for n, l := range d.Links {
		has := len(ix.FlowsByLink(l)) > 0
		if lb.linkHad[n] && !has && lb.linkPriced[n] {
			k.pricedLinkEmptied++
		}
		if !lb.linkHad[n] && has {
			k.linkFirstFlow++
		}
	}
}

// linkfailTranscript runs the seeded fail/heal sequence on a fresh engine
// and returns one stateLine per Step.
func linkfailTranscript(t *testing.T, cfg core.Config) ([]string, linkfailKinds) {
	t.Helper()
	r := linkfailRouter(t, 20061)
	e, err := core.NewEngine(r.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var lines []string
	steps := func(n int) {
		for i := 0; i < n; i++ {
			lines = append(lines, stateLine(e, e.Step().Utility))
		}
	}
	steps(linkfailWarmup)

	var kinds linkfailKinds
	runLinkfailSequence(t, r, func(n int, ev linkfailEvent) {
		d := r.TakeDelta()
		lb := noteBefore(e, d)
		if err := e.ResetRouting(r.Problem(), d); err != nil {
			t.Fatalf("event %d (%+v): %v", n, ev, err)
		}
		kinds.noteAfter(e, d, lb)
		steps(linkfailSteps)
	})
	return lines, kinds
}

// TestLinkfailMatchesFrozenTranscript holds the engine to a transcript
// recorded at 4c86252, whose Step swept every node and link of the problem
// and whose ResetRouting validated and re-planned all of it: utility and a
// digest of every rate, population, price and γ after each Step of a seeded
// fail/heal sequence, 12 Steps an event, under adaptive and fixed γ. Shard
// budgets of one and four must both reproduce it byte for byte. The sequence
// includes priced nodes and links that lose their last flow and unloaded
// ones that gain their first.
func TestLinkfailMatchesFrozenTranscript(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"linkfail_adaptive", core.Config{Adaptive: true}},
		{"linkfail_fixed", core.Config{}},
	} {
		path := filepath.Join("testdata", c.name+".bits")
		for _, workers := range []int{1, 4} {
			cfg := core.WithWorkers(c.cfg, workers)
			lines, kinds := linkfailTranscript(t, cfg)
			if kinds.pricedNodeEmptied == 0 || kinds.nodeFirstFlow == 0 ||
				kinds.pricedLinkEmptied == 0 || kinds.linkFirstFlow == 0 {
				t.Fatalf("%s: the sequence misses an event kind: %+v", c.name, kinds)
			}
			got := strings.Join(lines, "\n") + "\n"
			if *freeze && workers == 1 {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("%s: froze %d Steps, %+v", c.name, len(lines), kinds)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				continue
			}
			wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
			for i := range lines {
				if i >= len(wantLines) || lines[i] != wantLines[i] {
					t.Fatalf("%s workers %d: Step %d of %d is %q, frozen %q",
						c.name, workers, i+1, len(lines), lines[i], wantLines[min(i, len(wantLines)-1)])
				}
			}
			t.Fatalf("%s workers %d: %d Steps, frozen %d", c.name, workers, len(lines), len(wantLines))
		}
	}
}
