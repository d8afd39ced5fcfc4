package anneal

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestSolveValidates(t *testing.T) {
	p := workload.Base()
	p.Flows[0].RateMin = -1
	if _, err := Solve(p, Config{MaxSteps: 10}); err == nil {
		t.Error("Solve accepted invalid problem")
	}
}

// TestSolveRefusesNonFiniteStartTemp: both annealers refuse a NaN or
// infinite StartTemp with model.ErrInvalid instead of carrying it through
// the schedule.
func TestSolveRefusesNonFiniteStartTemp(t *testing.T) {
	p := workload.Base()
	for _, temp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := Config{StartTemp: temp, MaxSteps: 10}
		if _, err := Solve(p, cfg); !errors.Is(err, model.ErrInvalid) {
			t.Errorf("Solve at StartTemp %g = %v, want model.ErrInvalid", temp, err)
		}
		if _, err := SolveRatesGreedy(p, cfg); !errors.Is(err, model.ErrInvalid) {
			t.Errorf("SolveRatesGreedy at StartTemp %g = %v, want model.ErrInvalid", temp, err)
		}
	}
}

// TestSolveRefusesNegativeOptions: a negative StartTemp or MaxSteps is
// refused with model.ErrInvalid naming the field, where it used to run
// the default schedule; 0 still means the default.
func TestSolveRefusesNegativeOptions(t *testing.T) {
	p := workload.Base()
	for field, cfg := range map[string]Config{
		"StartTemp": {StartTemp: -1, MaxSteps: 10},
		"MaxSteps":  {MaxSteps: -1},
	} {
		if _, err := Solve(p, cfg); !errors.Is(err, model.ErrInvalid) || !strings.Contains(err.Error(), field) {
			t.Errorf("Solve with %s -1 = %v, want model.ErrInvalid naming it", field, err)
		}
		if _, err := SolveRatesGreedy(p, cfg); !errors.Is(err, model.ErrInvalid) || !strings.Contains(err.Error(), field) {
			t.Errorf("SolveRatesGreedy with %s -1 = %v, want model.ErrInvalid naming it", field, err)
		}
		if got := cfg.Rounds(); got != 0 {
			t.Errorf("Rounds with %s -1 = %d, want 0", field, got)
		}
	}
	if _, err := Solve(p, Config{StartTemp: 0, MaxSteps: 10}); err != nil {
		t.Errorf("Solve at StartTemp 0 = %v, want the default temperature", err)
	}
}

func TestSolveResultFeasible(t *testing.T) {
	p := workload.Base()
	res, err := Solve(p, Config{MaxSteps: 50_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix := model.NewIndex(p)
	if err := model.CheckFeasible(p, ix, res.Best, 1e-9); err != nil {
		t.Errorf("best allocation infeasible: %v", err)
	}
	if res.BestUtility <= 0 {
		t.Errorf("best utility = %g, want > 0", res.BestUtility)
	}
	if got := model.TotalUtility(p, res.Best); math.Abs(got-res.BestUtility) > 1e-6*res.BestUtility {
		t.Errorf("reported utility %g != recomputed %g (incremental bookkeeping drift)", res.BestUtility, got)
	}
	if res.Steps == 0 || res.Accepted == 0 || res.Rounds == 0 {
		t.Errorf("counters: steps=%d accepted=%d rounds=%d", res.Steps, res.Accepted, res.Rounds)
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	p := workload.Base()
	a, err := Solve(p, Config{MaxSteps: 20_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, Config{MaxSteps: 20_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestUtility != b.BestUtility || a.Accepted != b.Accepted {
		t.Errorf("same seed diverged: %g/%d vs %g/%d", a.BestUtility, a.Accepted, b.BestUtility, b.Accepted)
	}
	c, err := Solve(p, Config{MaxSteps: 20_000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.BestUtility == a.BestUtility && c.Accepted == a.Accepted {
		t.Log("different seeds produced identical runs (possible but suspicious)")
	}
}

func TestMoreStepsDoNotHurt(t *testing.T) {
	// Best-so-far tracking means a longer budget can only improve the
	// result for the same seed sequence... not strictly (different RNG
	// consumption), so compare loosely: the long run should be at least
	// as good as half the short run.
	p := workload.Base()
	short, err := Solve(p, Config{MaxSteps: 5_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Solve(p, Config{MaxSteps: 200_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if long.BestUtility < 0.5*short.BestUtility {
		t.Errorf("long run %g much worse than short run %g", long.BestUtility, short.BestUtility)
	}
}

func TestRounds(t *testing.T) {
	tests := []struct {
		temp float64
		want int
	}{
		// ceil(ln(1/T)/ln(0.999)) + 1.
		{5, int(math.Ceil(math.Log(1.0/5)/math.Log(0.999))) + 1},
		{100, int(math.Ceil(math.Log(1.0/100)/math.Log(0.999))) + 1},
		{0.5, 1}, // already below DefaultMinTemp
	}
	for _, tt := range tests {
		if got := (Config{StartTemp: tt.temp}).Rounds(); got != tt.want {
			t.Errorf("Rounds(T=%g) = %d, want %d", tt.temp, got, tt.want)
		}
	}
}

func TestInfeasibleStart(t *testing.T) {
	p := workload.Base()
	// Shrink node capacity below the flow costs at minimal rates.
	for b := range p.Nodes {
		p.Nodes[b].Capacity = 1
	}
	// Capacity 1 still validates (>0) but cannot host flows at r=10.
	_, err := Solve(p, Config{MaxSteps: 10})
	if !errors.Is(err, ErrInfeasibleStart) {
		t.Errorf("error = %v, want ErrInfeasibleStart", err)
	}
}

func TestSolveBestOf(t *testing.T) {
	p := workload.Base()
	res, temp, err := SolveBestOf(p, Config{MaxSteps: 10_000, Seed: 2}, []float64{5, 50})
	if err != nil {
		t.Fatal(err)
	}
	if temp != 5 && temp != 50 {
		t.Errorf("winning temperature = %g, want one of the candidates", temp)
	}
	if res.BestUtility <= 0 {
		t.Errorf("best utility = %g", res.BestUtility)
	}

	// Default temperature list engages when none supplied.
	_, temp, err = SolveBestOf(p, Config{MaxSteps: 4_000, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, want := range StartTemps {
		if temp == want {
			found = true
		}
	}
	if !found {
		t.Errorf("winning temperature %g not in StartTemps", temp)
	}
}

func TestConfigNormalized(t *testing.T) {
	c, err := Config{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if c.StartTemp != DefaultStartTemp || c.MaxSteps != DefaultMaxSteps || c.Seed != 1 {
		t.Errorf("normalized = %+v", c)
	}
}

func TestStateIncrementalConsistency(t *testing.T) {
	// Drive the state through many random accepted moves and verify the
	// incremental usage/utility caches match a from-scratch evaluation.
	p := workload.WithLinkBottlenecks(workload.Base(), 0.8)
	res, err := Solve(p, Config{MaxSteps: 30_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ix := model.NewIndex(p)
	if err := model.CheckFeasible(p, ix, res.Best, 1e-9); err != nil {
		t.Errorf("infeasible with links: %v", err)
	}
	if got := model.TotalUtility(p, res.Best); math.Abs(got-res.BestUtility) > 1e-6*(1+res.BestUtility) {
		t.Errorf("utility drift: cached %g vs recomputed %g", res.BestUtility, got)
	}
}
