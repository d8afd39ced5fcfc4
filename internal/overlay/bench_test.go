package overlay

import (
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

func benchFlows(n int, subscribersPerFlow int, topoNodes int) []FlowSpec {
	flows := make([]FlowSpec, n)
	for i := range flows {
		fs := FlowSpec{
			Name: "f", Source: model.NodeID(i % topoNodes),
			RateMin: 10, RateMax: 1000, LinkCost: 1, NodeCost: 3,
		}
		for s := 0; s < subscribersPerFlow; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name: "c", Node: model.NodeID((i + s*3 + 1) % topoNodes),
				MaxConsumers: 100, CostPerConsumer: 19, Utility: utility.NewLog(10),
			})
		}
		flows[i] = fs
	}
	return flows
}

func BenchmarkBuildProblem(b *testing.B) {
	t := Ring(32, 1e6)
	flows := benchFlows(16, 4, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(t, 9e5, flows); err != nil {
			b.Fatal(err)
		}
	}
}
