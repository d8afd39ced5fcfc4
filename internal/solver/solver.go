// Package solver provides the one-dimensional numeric root finding used by
// the LRGP rate-allocation step. The stationarity condition of Equation 7,
//
//	sum_j n_j * U_j'(r) = PL_i + PB_i,
//
// is a root of a strictly decreasing function of r (each U_j is strictly
// concave so each U_j' is strictly decreasing). Bisection on a bracketing
// interval is therefore exact up to tolerance.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// Iteration limit and tolerances. 200 halvings shrink an interval by
// 2^-200 (about 6e-61), which takes any rate bracket below DefaultXTol;
// Bisect stops earlier once a tolerance is met.
const (
	DefaultMaxIter = 200
	DefaultXTol    = 1e-12
	DefaultFTol    = 1e-12
)

// Errors reported by Bisect.
var (
	ErrNoBracket = errors.New("solver: interval does not bracket a root")
	ErrBadRange  = errors.New("solver: invalid interval")
)

// Bisect finds x in [lo, hi] with f(x) = 0 by bisection. f must be
// continuous and f(lo), f(hi) must have opposite signs (or one endpoint may
// itself be a root). The returned root satisfies |f(x)| <= DefaultFTol or a
// final interval width <= DefaultXTol; failing both after DefaultMaxIter
// halvings, it is the midpoint of the interval left.
func Bisect(f func(float64) float64, lo, hi float64) (float64, error) {
	if !(lo <= hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, fmt.Errorf("%w: [%g, %g]", ErrBadRange, lo, hi)
	}

	flo, fhi := f(lo), f(hi)
	if math.Abs(flo) <= DefaultFTol {
		return lo, nil
	}
	if math.Abs(fhi) <= DefaultFTol {
		return hi, nil
	}
	if flo*fhi > 0 {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}

	for i := 0; i < DefaultMaxIter; i++ {
		mid := lo + (hi-lo)/2
		fmid := f(mid)
		switch {
		case math.Abs(fmid) <= DefaultFTol, hi-lo <= DefaultXTol:
			return mid, nil
		case flo*fmid < 0:
			hi = mid
		default:
			lo, flo = mid, fmid
		}
	}
	return lo + (hi-lo)/2, nil
}
