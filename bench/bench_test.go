package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// The decomposed cycle must make the autopilot's decisions, or the traced
// demand_churn run measures something the product does not do. Two
// brokers on the same fake clock see the same seeded churn and traffic;
// one is cycled by broker.Autopilot, the other by the benchmark's cycler.
func TestCyclerMatchesAutopilot(t *testing.T) {
	clock := time.Unix(1_000_000, 0)
	now := func() time.Time { return clock }

	type side struct {
		b   *broker.Broker
		ids [][]broker.ConsumerID
	}
	newSide := func() *side {
		p := workload.Base()
		b, err := broker.New(p, broker.WithClock(now))
		if err != nil {
			t.Fatal(err)
		}
		s := &side{b: b, ids: make([][]broker.ConsumerID, len(p.Classes))}
		for j, c := range p.Classes {
			for k := 0; k < c.MaxConsumers/2; k++ {
				id, err := b.AttachConsumer(model.ClassID(j), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				s.ids[j] = append(s.ids[j], id)
			}
		}
		return s
	}
	a, c := newSide(), newSide()
	ap, err := broker.NewAutopilot(a.b, broker.AutopilotConfig{Core: engineConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	cy, err := newCycler(c.b, now)
	if err != nil {
		t.Fatal(err)
	}
	defer cy.close()

	rng := rand.New(rand.NewSource(7))
	attached := make([]int, len(a.ids))
	for j := range attached {
		attached[j] = len(a.ids[j])
	}
	gen := newChurnGen(rng, attached)
	flows := len(workload.Base().Flows)
	enacts, resets := 0, 0
	for cycle := 1; cycle <= 50; cycle++ {
		clock = clock.Add(100 * time.Millisecond)
		// A stretch of unchanging demand and traffic in the middle, so
		// that some cycles find nothing worth enacting.
		quiet := cycle > 25 && cycle <= 40
		for k := 0; k < 40 && !quiet; k++ {
			op := gen.next()
			for _, s := range []*side{a, c} {
				ids := s.ids[op.Class]
				if op.Detach {
					if err := s.b.DetachConsumer(ids[op.Slot]); err != nil {
						t.Fatal(err)
					}
					ids[op.Slot] = ids[len(ids)-1]
					s.ids[op.Class] = ids[:len(ids)-1]
					continue
				}
				id, err := s.b.AttachConsumer(model.ClassID(op.Class), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				s.ids[op.Class] = append(ids, id)
			}
		}
		// Offered load that wanders across RateMax/1.25, so that both the
		// Reset path and the SetClassDemand path are taken.
		for f := 0; f < flows; f++ {
			n := rng.Intn(150)
			if quiet {
				n = 50
			}
			for ; n > 0; n-- {
				for _, s := range []*side{a, c} {
					if err := s.b.Publish(model.FlowID(f), nil, ""); err != nil && !errors.Is(err, broker.ErrThrottled) {
						t.Fatal(err)
					}
				}
			}
		}
		rateMaxBefore := cy.prob.Flows[0].RateMax
		wantAlloc, wantEnact, err := ap.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		gotAlloc, gotEnact, _, err := cy.cycle(nil, int64(cycle))
		if err != nil {
			t.Fatal(err)
		}
		if gotEnact != wantEnact {
			t.Fatalf("cycle %d: cycler enacted=%v, autopilot enacted=%v", cycle, gotEnact, wantEnact)
		}
		if !reflect.DeepEqual(gotAlloc, wantAlloc) {
			t.Fatalf("cycle %d: cycler and autopilot solved different allocations", cycle)
		}
		if gotEnact {
			enacts++
		}
		if cy.prob.Flows[0].RateMax != rateMaxBefore {
			resets++
		}
	}
	if enacts == 0 || enacts == 50 {
		t.Errorf("%d of 50 cycles enacted: the test wants both decisions taken", enacts)
	}
	if resets == 0 {
		t.Error("no cycle moved a RateMax: the Reset path was not taken")
	}
	ea, err := enactedAllocation(a.b, a.b.Problem())
	if err != nil {
		t.Fatal(err)
	}
	ec, err := enactedAllocation(c.b, c.b.Problem())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ea, ec) {
		t.Error("the two brokers enforce different allocations after 50 cycles")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := series{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.9: 5, 1: 5} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := (series{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// spread must be what the contract computes: Python's
// statistics.quantiles(values, n=4) gives 2.75 and 8.25 for 1..10.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); !math.IsNaN(got) {
		t.Errorf("spread of one value = %v, want NaN", got)
	}
	if got, want := spread([]float64{9, 10, 11}), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three values = %v, want the range over the median, %v", got, want)
	}
}

func TestTracer(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "cycle", ID: 1, Parent: -1, Start: 0, End: 100},
		{Name: "solve", ID: 1, Parent: 0, Start: 10, End: 50},
		{Name: "enact", ID: 1, Parent: 0, Start: 60, End: 90},
		{Name: "cycle", ID: 2, Parent: -1, Start: 100, End: 130},
	}}
	if got, want := tr.durations("solve", 10), (series{4}); !reflect.DeepEqual(got, want) {
		t.Errorf("durations = %v, want %v", got, want)
	}
	other := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 5},
		{Name: "child", Parent: 0, Start: 1, End: 2},
	}}
	tr.merge(other)
	if got := tr.spans[5].Parent; got != 4 {
		t.Errorf("merged child's parent = %d, want 4", got)
	}
	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf, "w"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("wrote %d lines, want 6", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"workload": "w", "i": 0.0, "name": "cycle", "id": 1.0, "parent": -1.0, "start_ns": 0.0, "end_ns": 100.0}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("first line decodes to %v, want %v", first, want)
	}
}

// inputsDump renders every seeded input of every workload as text.
func inputsDump(seed int64) []byte {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, producerGroups(seed, 240, nProducers))
	rng := rand.New(rand.NewSource(seed))
	candidates := make([]model.FlowID, 100)
	for i := range candidates {
		candidates[i] = model.FlowID(i)
	}
	fmt.Fprintln(&buf, pickFlows(rng, candidates, churnFlows))
	attached := make([]int, 50)
	for j := range attached {
		attached[j] = j % 7
	}
	gen := newChurnGen(rng, attached)
	for k := 0; k < 3*churnOpsPerCycle; k++ {
		fmt.Fprintln(&buf, gen.next())
	}
	rng = rand.New(rand.NewSource(seed))
	tp, caps, flows := linkInputs(rng)
	fmt.Fprintln(&buf, tp.Links())
	fmt.Fprintln(&buf, caps)
	fmt.Fprintf(&buf, "%+v\n", flows)
	r, err := overlay.NewRouter(tp, caps, flows)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(&buf, failureOrder(rng, r))
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputsDump(3), inputsDump(3)
	if !bytes.Equal(a, b) {
		t.Error("two generations from seed 3 differ")
	}
	if bytes.Equal(a, inputsDump(4)) {
		t.Error("seeds 3 and 4 generate the same inputs")
	}
}

func TestProducerGroupsPartitionFlows(t *testing.T) {
	groups := producerGroups(1, 240, nProducers)
	seen := make(map[model.FlowID]bool)
	for _, g := range groups {
		if len(g) != 240/nProducers {
			t.Errorf("a group has %d flows, want %d", len(g), 240/nProducers)
		}
		for _, f := range g {
			if seen[f] {
				t.Errorf("flow %d is in two groups", f)
			}
			seen[f] = true
		}
	}
	if len(seen) != 240 {
		t.Errorf("groups cover %d flows, want 240", len(seen))
	}
}

// BENCHMARK.json at the root of the repository is the contract the driver
// reads; the tables in metrics.go and main.go are what the program
// reports. They must name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for k, w := range workloads {
		if bj.Workloads[k].Name != w.name || bj.Workloads[k].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", k, bj.Workloads[k].Name, bj.Workloads[k].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for k, md := range want {
			g := got[k]
			if g.Name != md.Name || g.Unit != md.Unit || g.Better != md.Better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the program %s %s %s", kind, k, g, md.Name, md.Unit, md.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != md.Bound):
				t.Errorf("%s %s: bound in BENCHMARK.json differs from the program's %v", kind, md.Name, md.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, md.Name)
			}
			if md.Bound > 0.25 {
				t.Errorf("%s %s: bound %v is above the contract's 0.25", kind, md.Name, md.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if float64(bj.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default -seconds %v", bj.RunSeconds, defaultSeconds)
	}
}

func writeRuns(t *testing.T, dir, name string, host hostInfo, throughput []float64, failed int64) string {
	t.Helper()
	var f runFile
	f.Host = host
	for _, def := range workloads {
		for _, v := range throughput {
			r := &result{Workload: def.name, Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
			for _, md := range endToEnd {
				r.Metrics[md.Name] = metricValue{Value: 1, Unit: md.Unit}
			}
			r.Metrics["throughput_per_s"] = metricValue{Value: v, Unit: "1/s"}
			f.Runs = append(f.Runs, r)
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	host := hostInfo{NProc: 2, GOMAXPROCS: 2, Go: "go1.x", Commit: "a"}
	base := writeRuns(t, dir, "base.json", host, []float64{100, 101, 99, 100}, 0)
	same := writeRuns(t, dir, "same.json", host, []float64{97, 98, 99, 98}, 0)
	slow := writeRuns(t, dir, "slow.json", host, []float64{60, 61, 59, 60}, 0)
	noisy := writeRuns(t, dir, "noisy.json", host, []float64{30, 100, 170, 60}, 0)
	failing := writeRuns(t, dir, "failing.json", host, []float64{100, 101, 99, 100}, 1)
	other := host
	other.NProc = 8
	elsewhere := writeRuns(t, dir, "elsewhere.json", other, []float64{100}, 0)

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("2%% slower is inside the bound, got %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slow); !errors.Is(err, errRegression) {
		t.Errorf("40%% slower: got %v, want a regression\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0.6000 of 100") {
		t.Errorf("the ratio is not printed with its base:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread above the bound must read unresolved, not regressed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, failing); !errors.Is(err, errRegression) {
		t.Errorf("a risen failed share: got %v, want a regression", err)
	}
	if err := compareFiles(&out, base, elsewhere); err == nil || errors.Is(err, errRegression) {
		t.Errorf("runs from another host shape must be refused, got %v", err)
	}
	// Several files a side pool their runs.
	out.Reset()
	if err := compareFiles(&out, base+","+same, same+","+base); err != nil {
		t.Errorf("pooled sides: %v", err)
	}
}

// Every workload, run briefly with spans on, must pass its output checks
// and report every per-layer metric; untraced, every end-to-end one, none
// of them zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four systems")
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			res, tr, err := runWorkload(def, runOpts{seed: 1, seconds: 0.6, traced: traced, setups: 1, warmup: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", def.name, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
				if tr == nil || len(tr.spans) == 0 {
					t.Errorf("%s: the traced run kept no spans", def.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(want))
			}
			for _, md := range want {
				mv, ok := res.Metrics[md.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is missing", def.name, traced, md.Name)
				case mv.Unit != md.Unit:
					t.Errorf("%s: %s has unit %q, want %q", def.name, md.Name, mv.Unit, md.Unit)
				case !traced && !(mv.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v", def.name, md.Name, mv.Value)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s: %s is %v", def.name, md.Name, mv.Value)
				}
			}
		}
	}
}
