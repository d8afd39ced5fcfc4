// Package calibrate recovers the paper's resource-model coefficients from
// observed broker behavior, the way the authors derived F_{b,i} = 3,
// G_{b,j} = 19 and c_b = 9*10^5 from measurements on the Gryphon system
// ("These equations are validated using experiments on the Gryphon
// system", Section 2.3).
//
// The broker exposes a deterministic work counter (one unit per message
// routed, per class transform, per filter evaluation, per delivery).
// MeasureBroker publishes message batches across a sweep of admitted
// population sizes and records the per-message work; FitAffine regresses
//
//	workPerMessage = F + G * n
//
// by least squares, recovering the consumer-independent cost F and the
// per-consumer cost G. ProblemCoefficients then scales them into the
// per-unit-rate form the optimization model uses.
package calibrate

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/broker"
	"repro/internal/model"
)

// Errors returned by the calibration routines.
var (
	ErrTooFewSamples = errors.New("calibrate: need at least two samples")
	ErrDegenerate    = errors.New("calibrate: degenerate sample set")
)

// Sample is one calibration observation: with n admitted consumers, each
// published message cost WorkPerMessage units.
type Sample struct {
	Consumers      int
	WorkPerMessage float64
}

// Fit is the affine model workPerMessage = F + G*n with its quality.
type Fit struct {
	// F is the consumer-independent per-message cost.
	F float64
	// G is the per-consumer per-message cost.
	G float64
	// R2 is the coefficient of determination on the samples.
	R2 float64
}

// FitAffine least-squares fits the affine model to the samples.
func FitAffine(samples []Sample) (Fit, error) {
	if len(samples) < 2 {
		return Fit{}, ErrTooFewSamples
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(samples))
	for _, s := range samples {
		x, y := float64(s.Consumers), s.WorkPerMessage
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return Fit{}, fmt.Errorf("%w: all samples share one population size", ErrDegenerate)
	}
	g := (n*sxy - sx*sy) / denom
	f := (sy - g*sx) / n

	meanY := sy / n
	var ssRes, ssTot float64
	for _, s := range samples {
		pred := f + g*float64(s.Consumers)
		ssRes += (s.WorkPerMessage - pred) * (s.WorkPerMessage - pred)
		ssTot += (s.WorkPerMessage - meanY) * (s.WorkPerMessage - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{F: f, G: g, R2: r2}, nil
}

// MeasureBroker sweeps admitted population sizes for one class of one
// flow on the broker, publishing msgsPerPoint messages at each point and
// recording per-message work. The broker should be dedicated to the
// measurement (its counters are global), the flow's rate is re-enacted to
// rate for every point, and enough consumers must already be attached to
// cover max(populations). A msgsPerPoint below 1 is refused.
func MeasureBroker(b *broker.Broker, flow model.FlowID, class model.ClassID, rate float64, populations []int, msgsPerPoint int) ([]Sample, error) {
	if msgsPerPoint < 1 {
		return nil, fmt.Errorf("calibrate: %d messages per point, want at least 1", msgsPerPoint)
	}
	p := b.Problem()
	var samples []Sample
	for _, n := range populations {
		alloc := model.NewAllocation(p)
		alloc.Rates[flow] = rate
		alloc.Consumers[class] = n
		if err := b.ApplyAllocation(alloc); err != nil {
			return nil, err
		}
		stats, err := b.ClassStats(class)
		if err != nil {
			return nil, err
		}
		if stats.Admitted != n {
			return nil, fmt.Errorf("calibrate: admitted %d of requested %d (attach more consumers)", stats.Admitted, n)
		}

		before := b.WorkUnits()
		published := 0
		for published < msgsPerPoint {
			err := b.Publish(flow, map[string]float64{"calib": 1}, "calibration")
			switch {
			case err == nil:
				published++
			case errors.Is(err, broker.ErrThrottled):
				return nil, fmt.Errorf("calibrate: throttled at rate %g; lower msgsPerPoint or raise the rate", rate)
			default:
				return nil, err
			}
		}
		samples = append(samples, Sample{
			Consumers:      n,
			WorkPerMessage: float64(b.WorkUnits()-before) / float64(msgsPerPoint),
		})
	}
	return samples, nil
}

// ProblemCoefficients converts a fit into the optimization model's
// coefficients: with utility defined over the message rate r, node
// resource use is workPerMessage * r, so F and G carry over per unit rate
// directly. unitCost scales abstract work units into the deployment's
// resource units (pass 1 to keep work units); it must be finite and
// above 0.
func ProblemCoefficients(fit Fit, unitCost float64) (flowNodeCost, consumerCost float64, err error) {
	if !(unitCost > 0 && unitCost <= math.MaxFloat64) {
		return 0, 0, fmt.Errorf("calibrate: unit cost %g, want finite and above 0", unitCost)
	}
	if fit.F <= 0 || fit.G <= 0 {
		return 0, 0, fmt.Errorf("%w: fitted F=%g G=%g must be positive", ErrDegenerate, fit.F, fit.G)
	}
	if math.IsNaN(fit.F) || math.IsNaN(fit.G) {
		return 0, 0, fmt.Errorf("%w: NaN fit", ErrDegenerate)
	}
	return fit.F * unitCost, fit.G * unitCost, nil
}
