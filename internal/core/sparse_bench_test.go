package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkEngineStepSparse is one Step of a settled engine on the shape the
// end-to-end link_failure workload runs (bench/inputs.go): 200 flows of
// three classes routed over a 10,000-node, ≈60,000-link overlay, of which
// under 3,000 nodes and about 3,000 links carry a flow.
func BenchmarkEngineStepSparse(b *testing.B) {
	r := sparseRouter(b, 1, 10_000, 200, 1e5, 1e6,
		func(rng *rand.Rand) float64 { return 2000 + rng.Float64()*2000 })
	e, err := core.NewEngine(r.Problem(), core.Config{Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 100; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
