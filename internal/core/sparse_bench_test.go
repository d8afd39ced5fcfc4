package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkEngineStepSparse is one Step of a settled engine on the shape the
// end-to-end link_failure workload runs (bench/inputs.go): 200 flows of
// three classes routed over a 10,000-node, ≈60,000-link overlay, of which
// under 3,000 nodes and about 3,000 links carry a flow. warm times it after
// 100 Steps; aged after 8,000, past the ≈6,700 Steps a slack node's price
// takes to decay below the smallest normal float64 at γ = 0.1, which is
// where prices held in the subnormal range used to slow every Step.
// subnormal-prices counts the node and link prices left there after the
// timed Steps. The aged warm-up takes under a second on 2 vCPUs, so -short
// runs it as is.
func BenchmarkEngineStepSparse(b *testing.B) {
	r := sparseRouter(b, 1, 10_000, 200, 1e5, 1e6,
		func(rng *rand.Rand) float64 { return 2000 + rng.Float64()*2000 })
	for _, c := range []struct {
		name   string
		warmup int
	}{{"warm", 100}, {"aged", 8000}} {
		// One engine per sub-benchmark, warmed on first use: every b.N
		// round continues the trajectory instead of paying the warm-up
		// again.
		var e *core.Engine
		b.Run(c.name, func(b *testing.B) {
			if e == nil {
				var err error
				if e, err = core.NewEngine(r.Problem(), core.Config{Adaptive: true}); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < c.warmup; i++ {
					e.Step()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			subnormal := 0
			for _, ps := range [][]float64{e.NodePrices(), e.LinkPrices()} {
				for _, p := range ps {
					if p != 0 && math.Abs(p) < 0x1p-1022 {
						subnormal++
					}
				}
			}
			b.ReportMetric(float64(subnormal), "subnormal-prices")
		})
		if e != nil {
			e.Close()
		}
	}
}
