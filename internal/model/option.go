package model

import (
	"fmt"
	"math"
)

// Option is the one rule for a numeric option of a public config: 0 means
// def, a finite value above 0 is kept, and anything else (NaN, ±Inf or a
// negative value) is an error wrapping ErrInvalid that names the option.
// Every constructor that takes such a config normalizes its numeric fields
// through Option, once, before it builds anything.
func Option[T ~int | ~int64 | ~float64](name string, v, def T) (T, error) {
	if v == 0 {
		return def, nil
	}
	if v > 0 && float64(v) <= math.MaxFloat64 {
		return v, nil
	}
	return v, fmt.Errorf("%w: %s %v: want a finite value above 0, or 0 for the default", ErrInvalid, name, v)
}
