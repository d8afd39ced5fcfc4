package model

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// checkOption feeds Option generated inputs of one type: gen returns a
// value and whether the rule accepts it. An accepted value comes back
// unchanged (0 comes back as the default); a refused one wraps ErrInvalid
// and names the option.
func checkOption[T ~int | ~int64 | ~float64](t *testing.T, def T, gen func(*rand.Rand) (T, bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v, ok := gen(rng)
		got, err := Option("Config.Knob", v, def)
		switch {
		case !ok && (!errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "Config.Knob")):
			t.Fatalf("Option(%v) = %v, %v; want ErrInvalid naming Config.Knob", v, got, err)
		case ok && err != nil:
			t.Fatalf("Option(%v) = %v", v, err)
		case ok && v == 0 && got != def:
			t.Fatalf("Option(0) = %v, want the default %v", got, def)
		case ok && v != 0 && got != v:
			t.Fatalf("Option(%v) = %v, want it kept", v, got)
		}
	}
}

func TestOptionFloat(t *testing.T) {
	special := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -1, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	checkOption(t, 0.01, func(rng *rand.Rand) (float64, bool) {
		v := special[rng.Intn(len(special))]
		if rng.Intn(2) == 0 {
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		return v, v >= 0 && !math.IsInf(v, 1)
	})
}

func TestOptionInt(t *testing.T) {
	checkOption(t, 100, func(rng *rand.Rand) (int, bool) {
		v := rng.Intn(7) - 3
		if rng.Intn(2) == 0 {
			v = int(rng.Int63()) >> rng.Intn(63)
			if rng.Intn(2) == 0 {
				v = -v
			}
		}
		return v, v >= 0
	})
}

func TestOptionDuration(t *testing.T) {
	checkOption(t, 5*time.Second, func(rng *rand.Rand) (time.Duration, bool) {
		v := time.Duration(rng.Int63n(7) - 3)
		if rng.Intn(2) == 0 {
			v = time.Duration(rng.Int63() >> rng.Intn(63))
			if rng.Intn(2) == 0 {
				v = -v
			}
		}
		return v, v >= 0
	})
}
