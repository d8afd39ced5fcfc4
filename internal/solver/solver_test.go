package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBisectLinear(t *testing.T) {
	for _, tt := range []struct {
		a, b, lo, hi, want, tol float64
	}{
		{2, -4, 0, 10, 2, 1e-9},
		// No tolerance is met within DefaultMaxIter halvings: every
		// midpoint lies above the root, so the interval left is
		// [0, 1e300/2^DefaultMaxIter] and its midpoint comes back.
		{1, -1, 0, 1e300, math.Ldexp(1e300, -(DefaultMaxIter + 1)), 0},
	} {
		f := func(x float64) float64 { return tt.a*x + tt.b }
		root, err := Bisect(f, tt.lo, tt.hi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(root-tt.want) > tt.tol {
			t.Errorf("root of %gx%+g on [%g, %g] = %g, want %g", tt.a, tt.b, tt.lo, tt.hi, root, tt.want)
		}
	}
}

func TestBisectDecreasing(t *testing.T) {
	// The LRGP stationarity shape: strictly decreasing marginal utility.
	f := func(r float64) float64 { return 100/(1+r) - 5 }
	root, err := Bisect(f, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-19) > 1e-6 {
		t.Errorf("root = %g, want 19", root)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	root, err := Bisect(f, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0 {
		t.Errorf("root = %g, want 0 (endpoint)", root)
	}
	root, err = Bisect(func(x float64) float64 { return x - 5 }, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if root != 5 {
		t.Errorf("root = %g, want 5 (endpoint)", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1); !errors.Is(err, ErrNoBracket) {
		t.Errorf("error = %v, want ErrNoBracket", err)
	}
}

func TestBisectBadRange(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := Bisect(f, 2, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("error = %v, want ErrBadRange", err)
	}
	if _, err := Bisect(f, math.NaN(), 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("error = %v, want ErrBadRange for NaN", err)
	}
}

// TestBisectPropertyRandomDecreasing solves randomized LRGP-like
// stationarity equations and verifies the residual is tiny.
func TestBisectPropertyRandomDecreasing(t *testing.T) {
	prop := func(scaleSeed, priceSeed uint16) bool {
		scale := 1 + float64(scaleSeed)          // in [1, 65536]
		price := 1e-4 + float64(priceSeed)/65536 // in (0, ~1)
		f := func(r float64) float64 { return scale/(1+r) - price }
		if f(0) <= 0 || f(1e9) >= 0 {
			return true // not bracketed in test interval, skip
		}
		root, err := Bisect(f, 0, 1e9)
		if err != nil {
			return false
		}
		want := scale/price - 1
		return math.Abs(root-want) <= 1e-6*(1+want)
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(7)),
	}); err != nil {
		t.Error(err)
	}
}
