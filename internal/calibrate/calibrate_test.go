package calibrate

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

func TestFitAffineExact(t *testing.T) {
	// y = 3 + 19n, noiseless.
	var samples []Sample
	for _, n := range []int{0, 10, 50, 100} {
		samples = append(samples, Sample{Consumers: n, WorkPerMessage: 3 + 19*float64(n)})
	}
	fit, err := FitAffine(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.F-3) > 1e-9 || math.Abs(fit.G-19) > 1e-9 {
		t.Errorf("fit = %+v, want F=3 G=19", fit)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %g for exact data", fit.R2)
	}
}

func TestFitAffineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var samples []Sample
	for n := 0; n <= 200; n += 5 {
		y := 3 + 19*float64(n) + rng.NormFloat64()*5
		samples = append(samples, Sample{Consumers: n, WorkPerMessage: y})
	}
	fit, err := FitAffine(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.F-3) > 3 || math.Abs(fit.G-19)/19 > 0.02 {
		t.Errorf("fit = %+v, want approx F=3 G=19", fit)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestFitAffineErrors(t *testing.T) {
	if _, err := FitAffine(nil); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("empty: %v", err)
	}
	if _, err := FitAffine([]Sample{{10, 5}}); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("single: %v", err)
	}
	same := []Sample{{10, 5}, {10, 6}, {10, 7}}
	if _, err := FitAffine(same); !errors.Is(err, ErrDegenerate) {
		t.Errorf("collinear: %v", err)
	}
}

// calibrationBroker builds a dedicated broker with one flow and one
// class, attaching maxConsumers handler-less consumers.
func calibrationBroker(t *testing.T, maxConsumers int) *broker.Broker {
	t.Helper()
	p := &model.Problem{
		Name: "calibration-rig",
		Flows: []model.Flow{
			{ID: 0, Name: "probe", Source: 0, RateMin: 1, RateMax: 1e6},
		},
		Nodes: []model.Node{
			{ID: 0, Capacity: 1e12, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 1})},
		},
		Classes: []model.Class{
			{ID: 0, Name: "subjects", Flow: 0, Node: 0, MaxConsumers: maxConsumers,
				CostPerConsumer: 1, Utility: utility.NewLog(1)},
		},
	}
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b, err := broker.New(p, broker.WithClock(func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxConsumers; i++ {
		if _, err := b.AttachConsumer(0, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestMeasureBrokerRecoversWorkModel(t *testing.T) {
	// The broker's instrumented work per message is 1 (routing) + 1
	// (class transform, only when someone is admitted) + 2 per admitted
	// consumer (filter + delivery). MeasureBroker + FitAffine must
	// recover G = 2 exactly and F in [1, 2].
	b := calibrationBroker(t, 200)
	samples, err := MeasureBroker(b, 0, 0, 1000, []int{10, 50, 100, 200}, 50)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitAffine(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.G-2) > 1e-9 {
		t.Errorf("G = %g, want 2 (filter + delivery per consumer)", fit.G)
	}
	if math.Abs(fit.F-2) > 1e-9 {
		t.Errorf("F = %g, want 2 (routing + transform)", fit.F)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestMeasureBrokerInsufficientConsumers(t *testing.T) {
	b := calibrationBroker(t, 5)
	if _, err := MeasureBroker(b, 0, 0, 1000, []int{10}, 10); err == nil {
		t.Error("accepted a population above the attached count")
	}
}

// TestMeasureBrokerRefusesNoMessages: fewer than one message per point is
// refused before the broker is touched, instead of silently measuring 100.
func TestMeasureBrokerRefusesNoMessages(t *testing.T) {
	b := calibrationBroker(t, 10)
	for _, msgs := range []int{0, -3} {
		if s, err := MeasureBroker(b, 0, 0, 1000, []int{5, 10}, msgs); err == nil {
			t.Errorf("msgsPerPoint %d: measured %v, want an error", msgs, s)
		}
	}
	if w := b.WorkUnits(); w != 0 {
		t.Errorf("refused sweeps published %d work units", w)
	}
	if st, _ := b.ClassStats(0); st.Admitted != 0 {
		t.Errorf("refused sweeps admitted %d consumers", st.Admitted)
	}
}

// TestProblemCoefficientsRefusesNonFiniteUnitCost: a NaN or infinite unit
// cost is refused instead of scaling the fit into NaN or infinite
// coefficients.
func TestProblemCoefficientsRefusesNonFiniteUnitCost(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if f, g, err := ProblemCoefficients(Fit{F: 2, G: 2}, c); err == nil {
			t.Errorf("unit cost %g: coefficients %g/%g, want an error", c, f, g)
		}
	}
}

func TestProblemCoefficients(t *testing.T) {
	f, g, err := ProblemCoefficients(Fit{F: 2, G: 2}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if f != 3 || g != 3 {
		t.Errorf("coefficients = %g/%g, want 3/3", f, g)
	}
	if _, _, err := ProblemCoefficients(Fit{F: 2, G: 2}, 0); err == nil {
		t.Error("accepted zero unit cost")
	}
	if _, _, err := ProblemCoefficients(Fit{F: -1, G: 2}, 1); err == nil {
		t.Error("accepted negative F")
	}
	if _, _, err := ProblemCoefficients(Fit{F: math.NaN(), G: 2}, 1); err == nil {
		t.Error("accepted NaN fit")
	}
}

// TestCalibrationClosesTheLoop: measure the broker, build an optimization
// problem from the fitted coefficients, and solve it — the full pipeline
// the paper describes (measure Gryphon -> parameterize the model ->
// optimize).
func TestCalibrationClosesTheLoop(t *testing.T) {
	b := calibrationBroker(t, 500)
	samples, err := MeasureBroker(b, 0, 0, 1000, []int{0, 100, 300, 500}, 25)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitAffine(samples)
	if err != nil {
		t.Fatal(err)
	}
	fCost, gCost, err := ProblemCoefficients(fit, 1)
	if err != nil {
		t.Fatal(err)
	}

	p := &model.Problem{
		Name:  "calibrated",
		Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 10, RateMax: 1000}},
		Nodes: []model.Node{{ID: 0, Capacity: 50_000,
			FlowCost: model.CostsOf(map[model.FlowID]float64{0: fCost})}},
		Classes: []model.Class{
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 5000,
				CostPerConsumer: gCost, Utility: utility.NewLog(10)},
		},
	}
	if err := model.Validate(p); err != nil {
		t.Fatalf("calibrated problem invalid: %v", err)
	}
	e, err := core.NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(400)
	if res.Utility <= 0 {
		t.Errorf("utility = %g", res.Utility)
	}
	ix := e.Index()
	if err := model.CheckFeasible(p, ix, res.Allocation, 1e-6); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}
