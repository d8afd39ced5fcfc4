package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Metro is the headline scaling workload: a metropolitan broker overlay of
// independent pods (point-of-presence clusters), each with its own flows,
// nodes, classes and one bottleneck link per flow. Pods share nothing, so
// the crossing-writes analysis (core/plan.go) proves the problem
// componentized and the engine fans whole pods out over its workers.
//
// Heterogeneity is the point: "hot" pods get capacities tight against
// demand, so their prices keep orbiting a limit cycle and their flows stay
// dirty forever; the remaining cold pods get generous headroom, converge,
// and exercise the incremental skip path at steady state. That mix is what
// the BenchmarkEngineStepMetro family measures.

// MetroConfig parameterizes MetroSized. Zero fields are normalized to the
// full metro scale (see Metro).
type MetroConfig struct {
	// Pods is the number of independent pods (default 1000).
	Pods int
	// FlowsPerPod is the number of flows per pod (default 10).
	FlowsPerPod int
	// NodesPerPod is the number of nodes per pod (default 100).
	NodesPerPod int
	// ClassesPerFlow is the number of consumer classes per flow
	// (default 100).
	ClassesPerFlow int
}

// Every metroHotEvery-th pod is capacity-constrained (a quarter of the pods
// stay hot), and metroSeed seeds the generator, so one config always
// produces the identical problem.
const (
	metroHotEvery = 4
	metroSeed     = 1
)

func (c MetroConfig) normalized() MetroConfig {
	if c.Pods <= 0 {
		c.Pods = 1000
	}
	if c.FlowsPerPod <= 0 {
		c.FlowsPerPod = 10
	}
	if c.NodesPerPod <= 0 {
		c.NodesPerPod = 100
	}
	if c.ClassesPerFlow <= 0 {
		c.ClassesPerFlow = 100
	}
	return c
}

// Metro returns the full metro-scale workload: 10,000 flows, 100,000
// nodes, 1,000,000 classes, 10,000 links.
func Metro() *model.Problem {
	return MetroSized(MetroConfig{})
}

// MetroSmall returns a CI-sized slice of the same structure: 240 flows,
// 1,200 nodes, 9,600 classes, 240 links. Small enough for smoke tests and
// -benchtime=1x bench runs, big enough to clear the engine's parallel
// cutover and fuse.
func MetroSmall() *model.Problem {
	return MetroSized(MetroConfig{
		Pods:           24,
		FlowsPerPod:    10,
		NodesPerPod:    50,
		ClassesPerFlow: 40,
	})
}

// MetroSized builds a metro workload at the given scale. Generation is
// sequential from a single seeded source — never from map iteration or
// goroutines — so the same config yields the byte-identical problem on
// every run and under every GOMAXPROCS.
func MetroSized(cfg MetroConfig) *model.Problem {
	c := cfg.normalized()
	rng := rand.New(rand.NewSource(metroSeed))

	nFlows := c.Pods * c.FlowsPerPod
	nNodes := c.Pods * c.NodesPerPod
	nClasses := nFlows * c.ClassesPerFlow
	p := &model.Problem{
		Name:    fmt.Sprintf("metro-%dp-%df-%dn", c.Pods, nFlows, nNodes),
		Flows:   make([]model.Flow, 0, nFlows),
		Classes: make([]model.Class, 0, nClasses),
		Nodes:   make([]model.Node, 0, nNodes),
		Links:   make([]model.Link, 0, nFlows),
	}

	for pod := 0; pod < c.Pods; pod++ {
		hot := pod%metroHotEvery == 0
		nodeBase := pod * c.NodesPerPod
		// Per-node capacity, heterogeneous: hot pods sit tight against the
		// demand their classes generate (sustained price dynamics), cold
		// pods get two orders of magnitude of headroom and quiesce.
		for k := 0; k < c.NodesPerPod; k++ {
			scale := 200 + 100*rng.Float64()
			if hot {
				scale = 0.5 + 0.5*rng.Float64()
			}
			p.Nodes = append(p.Nodes, model.Node{
				ID:       model.NodeID(nodeBase + k),
				Capacity: scale * NodeCapacity,
			})
		}
		for f := 0; f < c.FlowsPerPod; f++ {
			fid := model.FlowID(pod*c.FlowsPerPod + f)
			p.Flows = append(p.Flows, model.Flow{
				ID:      fid,
				Source:  model.NodeID(nodeBase), // rewritten below
				RateMin: RateMin,
				RateMax: RateMax,
			})
			// The flow reaches a contiguous, randomly-sized, randomly-
			// placed window of the pod's nodes: window placement varies the
			// per-node flow mix, contiguity keeps the reach list cheap to
			// pick class attachments from.
			reach := 3
			if c.NodesPerPod > 3 {
				reach += rng.Intn(c.NodesPerPod - 2)
			}
			if reach > c.NodesPerPod {
				reach = c.NodesPerPod
			}
			start := 0
			if c.NodesPerPod > reach {
				start = rng.Intn(c.NodesPerPod - reach + 1)
			}
			for k := 0; k < reach; k++ {
				b := nodeBase + start + k
				p.Nodes[b].FlowCost = p.Nodes[b].FlowCost.With(fid, FlowNodeCost*(0.5+rng.Float64()))
			}
			src := model.NodeID(nodeBase + start)
			p.Flows[fid].Source = src

			// Alternate closed-form utility families per flow so both the
			// log and the power fast paths of the rate solver stay hot.
			shape := ShapeLog
			switch f % 3 {
			case 1:
				shape = ShapePow50
			case 2:
				shape = ShapePow25
			}
			for j := 0; j < c.ClassesPerFlow; j++ {
				b := model.NodeID(nodeBase + start + rng.Intn(reach))
				rank := 1 + rng.Float64()*99
				p.Classes = append(p.Classes, model.Class{
					ID:              model.ClassID(len(p.Classes)),
					Flow:            fid,
					Node:            b,
					MaxConsumers:    1 + rng.Intn(400),
					CostPerConsumer: ConsumerCost * (0.5 + rng.Float64()),
					Utility:         shape.Utility(rank),
				})
			}

			// One egress link per flow, inside the pod so the component
			// structure survives. Hot pods get binding link capacities,
			// cold pods slack ones.
			to := src
			if reach > 1 {
				to = model.NodeID(nodeBase + start + 1)
			} else if c.NodesPerPod > 1 {
				to = model.NodeID(nodeBase + (start+1)%c.NodesPerPod)
				// Keep the link inside the component: the flow must
				// traverse only nodes it reaches, but a link's endpoints
				// are topology only — the component analysis unions the
				// link with its flows, not its endpoints, so any in-pod
				// endpoint is safe.
			}
			utilization := 3 + 2*rng.Float64()
			if hot {
				utilization = 0.35 + 0.3*rng.Float64()
			}
			p.Links = append(p.Links, model.Link{
				ID:       model.LinkID(len(p.Links)),
				From:     src,
				To:       to,
				Capacity: utilization * RateMax,
				FlowCost: model.NewCosts([]model.FlowID{fid}, []float64{1}),
			})
		}
	}
	packCosts(p.Nodes)
	return p
}

// packCosts re-cuts the nodes' cost records, built one flow at a time,
// out of one array each in node order, so an engine sweeping the nodes
// reads their cost lists from contiguous memory.
func packCosts(nodes []model.Node) {
	pairs := 0
	for _, n := range nodes {
		pairs += n.FlowCost.Len()
	}
	flows := make([]model.FlowID, 0, pairs)
	costs := make([]float64, 0, pairs)
	for b := range nodes {
		c := nodes[b].FlowCost
		start, end := len(flows), len(flows)+c.Len()
		flows = append(flows, c.Flows()...)
		costs = append(costs, c.Values()...)
		nodes[b].FlowCost = model.NewCosts(flows[start:end:end], costs[start:end:end])
	}
}
