package repro_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anneal"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/workload"
)

// numericOptions has one row per numeric field of a config: a valid
// config of the type, the field, and the constructor that must refuse a
// bad value in it. TestNumericOptionsRefuseBadValues runs the rows, and
// TestEveryNumericOptionHasARow fails on a numeric field without one.
var numericOptions = []struct {
	cfg   any
	field string
	build func(cfg any) error
}{
	{core.Config{}, "Gamma", newEngine},
	{core.Config{}, "LinkGamma", newEngine},
	{dist.Config{}, "Hosts", newCluster},
	{dist.Config{}, "Staleness", newCluster},
	{dist.Config{}, "StallTimeout", newCluster},
	{anneal.Config{MaxSteps: 10}, "StartTemp", solveAnneal},
	{anneal.Config{}, "MaxSteps", solveAnneal},
	{broker.AutopilotConfig{}, "EnactThreshold", newAutopilot},
	{broker.AutopilotConfig{}, "ItersPerCycle", newAutopilot},
}

func newEngine(cfg any) error {
	e, err := core.NewEngine(workload.Base(), cfg.(core.Config))
	if err == nil {
		e.Close()
	}
	return err
}

func newCluster(cfg any) error {
	net := transport.NewMemory()
	defer net.Close()
	cl, err := dist.New(workload.Base(), cfg.(dist.Config), net)
	if err == nil {
		cl.Close()
	}
	return err
}

func solveAnneal(cfg any) error {
	_, err := anneal.Solve(workload.Base(), cfg.(anneal.Config))
	return err
}

func newAutopilot(cfg any) error {
	b, err := broker.New(workload.Base())
	if err != nil {
		return err
	}
	a, err := broker.NewAutopilot(b, cfg.(broker.AutopilotConfig))
	if err == nil {
		a.Close()
	}
	return err
}

// optionKey is "importpath.Type.Field", the key reach_test.go's census
// matches rows against.
func optionKey(cfg any, field string) string {
	t := reflect.TypeOf(cfg)
	return t.PkgPath() + "." + t.Name() + "." + field
}

// TestNumericOptionsRefuseBadValues sets each row's field, one at a time,
// to values generated from its kind: NaN, +Inf and −1 for a float, −1 for
// an integer or a duration. The constructor must refuse each with
// model.ErrInvalid naming the field, and take 0 as the default.
func TestNumericOptionsRefuseBadValues(t *testing.T) {
	for _, row := range numericOptions {
		key := optionKey(row.cfg, row.field)
		field, ok := reflect.TypeOf(row.cfg).FieldByName(row.field)
		if !ok {
			t.Fatalf("%s: no such field", key)
		}
		bad := []float64{-1}
		if field.Type.Kind() == reflect.Float64 {
			bad = append(bad, math.NaN(), math.Inf(1))
		}
		set := func(v float64) any {
			cfg := reflect.New(reflect.TypeOf(row.cfg)).Elem()
			cfg.Set(reflect.ValueOf(row.cfg))
			switch f := cfg.FieldByIndex(field.Index); {
			case f.CanFloat():
				f.SetFloat(v)
			case f.CanInt():
				f.SetInt(int64(v))
			default:
				t.Fatalf("%s: kind %v is not a numeric option", key, f.Kind())
			}
			return cfg.Interface()
		}
		for _, v := range bad {
			err := row.build(set(v))
			if !errors.Is(err, model.ErrInvalid) || !strings.Contains(err.Error(), "."+row.field) {
				t.Errorf("%s = %g: constructor returned %v, want model.ErrInvalid naming the field", key, v, err)
			}
		}
		if err := row.build(set(0)); err != nil {
			t.Errorf("%s = 0: constructor returned %v, want the default", key, err)
		}
	}
}
