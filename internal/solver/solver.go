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

// Default iteration limits and tolerances. 200 bisection steps reduce any
// bracketing interval below double-precision resolution; Bisect stops
// earlier once tolerances are met.
const (
	DefaultMaxIter = 200
	DefaultXTol    = 1e-12
	DefaultFTol    = 1e-12
)

// Errors reported by Bisect.
var (
	ErrNoBracket = errors.New("solver: interval does not bracket a root")
	ErrBadRange  = errors.New("solver: invalid interval")
	ErrMaxIter   = errors.New("solver: iteration limit exceeded")
)

// Options tunes a solve. The zero value selects the defaults above.
type Options struct {
	// MaxIter caps the iteration count (default DefaultMaxIter).
	MaxIter int
	// XTol is the absolute tolerance on the root position.
	XTol float64
	// FTol is the absolute tolerance on the function value.
	FTol float64
}

func (o Options) normalized() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.XTol <= 0 {
		o.XTol = DefaultXTol
	}
	if o.FTol <= 0 {
		o.FTol = DefaultFTol
	}
	return o
}

// Bisect finds x in [lo, hi] with f(x) = 0 by bisection. f must be
// continuous and f(lo), f(hi) must have opposite signs (or one endpoint may
// itself be a root). The returned root satisfies either |f(x)| <= FTol or a
// final interval width <= XTol.
func Bisect(f func(float64) float64, lo, hi float64, opts Options) (float64, error) {
	o := opts.normalized()
	if !(lo <= hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, fmt.Errorf("%w: [%g, %g]", ErrBadRange, lo, hi)
	}

	flo, fhi := f(lo), f(hi)
	if math.Abs(flo) <= o.FTol {
		return lo, nil
	}
	if math.Abs(fhi) <= o.FTol {
		return hi, nil
	}
	if flo*fhi > 0 {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}

	for i := 0; i < o.MaxIter; i++ {
		mid := lo + (hi-lo)/2
		fmid := f(mid)
		switch {
		case math.Abs(fmid) <= o.FTol, hi-lo <= o.XTol:
			return mid, nil
		case flo*fmid < 0:
			hi = mid
		default:
			lo, flo = mid, fmid
		}
	}
	return lo + (hi-lo)/2, nil
}
