package main

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/utility"
)

// Everything a workload feeds the program is generated here from the seed
// alone, never from the clock or from map order: the same seed gives the
// same inputs.

// producerGroups splits the flows into one disjoint, seeded-order set per
// producer goroutine.
func producerGroups(seed int64, flows, producers int) [][]model.FlowID {
	perm := rand.New(rand.NewSource(seed)).Perm(flows)
	groups := make([][]model.FlowID, producers)
	for k, i := range perm {
		g := k * producers / flows
		groups[g] = append(groups[g], model.FlowID(i))
	}
	return groups
}

// churnOp attaches a consumer to a class or detaches the class's
// Slot-th attached one.
type churnOp struct {
	Class  int32
	Detach bool
	Slot   int32
}

// churnGen draws the demand_churn op stream. It tracks only how many
// consumers each class has, which is all the stream depends on.
type churnGen struct {
	rng   *rand.Rand
	count []int
}

func newChurnGen(rng *rand.Rand, attached []int) *churnGen {
	return &churnGen{rng: rng, count: append([]int(nil), attached...)}
}

func (g *churnGen) next() churnOp {
	j := g.rng.Intn(len(g.count))
	if g.rng.Intn(2) == 0 && g.count[j] > 0 {
		slot := g.rng.Intn(g.count[j])
		g.count[j]--
		return churnOp{Class: int32(j), Detach: true, Slot: int32(slot)}
	}
	g.count[j]++
	return churnOp{Class: int32(j)}
}

// pickFlows draws n of the candidate flows in seeded order.
func pickFlows(rng *rand.Rand, candidates []model.FlowID, n int) []model.FlowID {
	c := append([]model.FlowID(nil), candidates...)
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	if len(c) > n {
		c = c[:n]
	}
	return c
}

// The link_failure overlay: the X11 shape of internal/experiments at twice
// its flow count.
const (
	linkNodes       = 10_000
	linkFlows       = 200
	linkSubsPerFlow = 3
)

// linkInputs generates the overlay, its node capacities and its flows.
func linkInputs(rng *rand.Rand) (*overlay.Topology, []float64, []overlay.FlowSpec) {
	tp := overlay.RandomTopologyHetero(rng, linkNodes, 2, 1e5, 1e6)
	caps := make([]float64, linkNodes)
	for b := range caps {
		caps[b] = 2000 + rng.Float64()*2000
	}
	flows := make([]overlay.FlowSpec, linkFlows)
	for fi := range flows {
		fs := overlay.FlowSpec{
			Name:     fmt.Sprintf("f%d", fi),
			Source:   model.NodeID(rng.Intn(linkNodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < linkSubsPerFlow; s++ {
			fs.Classes = append(fs.Classes, overlay.ClassSpec{
				Name:            fmt.Sprintf("f%d-c%d", fi, s),
				Node:            model.NodeID(rng.Intn(linkNodes)),
				MaxConsumers:    10 + rng.Intn(50),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

// failureOrder lists the links some flow's tree uses, in seeded order: the
// links link_failure fails one after another.
func failureOrder(rng *rand.Rand, r *overlay.Router) []int {
	var cand []int
	for li := 0; li < r.Topology().LinkCount(); li++ {
		if len(r.FlowsThroughLink(li)) > 0 {
			cand = append(cand, li)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	return cand
}
