package solver

import (
	"math"
	"testing"
)

// FuzzBisectDecreasing fuzzes the LRGP stationarity shape: f(r) =
// scale/(shift+r) - price on an interval that brackets the root. The
// solver must return the analytic root to tolerance and never escape the
// interval.
func FuzzBisectDecreasing(f *testing.F) {
	f.Add(100.0, 1.0, 0.5, 10.0, 1000.0)
	f.Add(1.0, 0.001, 0.9, 1.0, 2.0)
	f.Add(1e6, 10.0, 1e-3, 1.0, 1e9)
	f.Fuzz(func(t *testing.T, scale, shift, price, lo, hi float64) {
		// Constrain to the meaningful regime.
		if !(scale > 0 && scale < 1e12) || !(shift > 0 && shift < 1e6) ||
			!(price > 0 && price < 1e12) || !(lo >= 0 && lo < hi && hi < 1e12) {
			t.Skip()
		}
		fn := func(r float64) float64 { return scale/(shift+r) - price }
		if fn(lo) <= 0 || fn(hi) >= 0 {
			t.Skip() // not bracketed
		}
		root, err := Bisect(fn, lo, hi)
		if err != nil {
			t.Fatalf("Bisect(%g,%g,%g,[%g,%g]): %v", scale, shift, price, lo, hi, err)
		}
		if root < lo || root > hi || math.IsNaN(root) {
			t.Fatalf("root %g escaped [%g, %g]", root, lo, hi)
		}
		want := scale/price - shift
		if math.Abs(root-want) > 1e-6*(1+math.Abs(want)) && math.Abs(fn(root)) > 1e-6*(1+price) {
			t.Fatalf("root %g, want %g (residual %g)", root, want, fn(root))
		}
	})
}
