package broker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/utility"
)

// goldenTranscriptSHA256 pins the serial-publish behavior of the broker:
// the full transcript of a scripted scenario — every delivery (consumer,
// flow, seq, timestamp, body, attributes), every throttle, the per-flow
// and per-class counters, and the WorkUnits trajectory — hashed so any
// semantic drift in the data plane fails loudly. The constant was
// recorded against the pre-snapshot (global-mutex) broker; the
// copy-on-write data plane must reproduce it bit for bit.
const goldenTranscriptSHA256 = "0b27dbe3cc79cd47ab9bd5c5acf057c98d2ba679c68ef343ab3afbeed9054fb6"

// goldenWorkUnits is the final WorkUnits value of the scripted scenario,
// kept as a readable sub-assertion alongside the opaque hash.
const goldenWorkUnits = 167

// goldenProblem: two flows, four classes covering Identity, DropAttrs and
// Annotate transforms across two nodes.
func goldenProblem() *model.Problem {
	return &model.Problem{
		Name: "golden",
		Flows: []model.Flow{
			{ID: 0, Name: "trades", Source: 0, RateMin: 5, RateMax: 1000},
			{ID: 1, Name: "quotes", Source: 1, RateMin: 5, RateMax: 1000},
		},
		Nodes: []model.Node{
			{ID: 0, Capacity: 9e5, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3, 1: 2})},
			{ID: 1, Capacity: 9e5, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3, 1: 2})},
		},
		Classes: []model.Class{
			{ID: 0, Name: "gold", Flow: 0, Node: 0, MaxConsumers: 10, CostPerConsumer: 19, Utility: utility.NewLog(100)},
			{ID: 1, Name: "public", Flow: 0, Node: 1, MaxConsumers: 10, CostPerConsumer: 19, Utility: utility.NewLog(5)},
			{ID: 2, Name: "tagged", Flow: 1, Node: 0, MaxConsumers: 10, CostPerConsumer: 7, Utility: utility.NewLog(10)},
			{ID: 3, Name: "idle", Flow: 1, Node: 1, MaxConsumers: 10, CostPerConsumer: 7, Utility: utility.NewLog(1)},
		},
	}
}

// formatAttrs renders an attribute map with sorted keys so the transcript
// is deterministic.
func formatAttrs(attrs map[string]float64) string {
	if attrs == nil {
		return "nil"
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%g", k, attrs[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// goldenTranscript runs the scripted scenario and returns the transcript.
// Handlers append delivery lines; control-plane events and checkpoints
// append their own lines. Everything is serial.
func goldenTranscript() (string, uint64, error) {
	clock := newFakeClock()
	p := goldenProblem()
	b, err := New(p,
		WithClock(clock.Now),
		WithTransform(1, DropAttrs{"insider"}),
		WithTransform(2, Annotate{Attr: "tagged", Value: 1}),
	)
	if err != nil {
		return "", 0, err
	}

	var sb strings.Builder
	record := func(format string, args ...any) {
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	handler := func(label string) Handler {
		return func(m Message) {
			record("deliver %s f=%d seq=%d t=%+v body=%q attrs=%s",
				label, m.Flow, m.Seq, m.Time.Sub(t0), m.Body, formatAttrs(m.Attrs))
		}
	}

	// Attach order matters: admission is a prefix of attach order.
	goldAll, err := b.AttachConsumer(0, nil, handler("gold/all"))
	if err != nil {
		return "", 0, err
	}
	if _, err = b.AttachConsumer(0, AttrFilter{Attr: "price", Op: CmpGT, Value: 80}, handler("gold/gt80")); err != nil {
		return "", 0, err
	}
	if _, err = b.AttachConsumer(1, nil, handler("public/all")); err != nil {
		return "", 0, err
	}
	// This filter keys on the attribute the class transform drops, so it
	// must never match on the delivery path.
	if _, err = b.AttachConsumer(1, AttrFilter{Attr: "insider", Op: CmpEQ, Value: 1}, handler("public/insider")); err != nil {
		return "", 0, err
	}
	if _, err = b.AttachConsumer(2, AttrFilter{Attr: "tagged", Op: CmpEQ, Value: 1}, handler("tagged/tagged")); err != nil {
		return "", 0, err
	}
	idle, err := b.AttachConsumer(3, nil, handler("idle/all"))
	if err != nil {
		return "", 0, err
	}

	pub := func(flow model.FlowID, attrs map[string]float64, body string) {
		err := b.Publish(flow, attrs, body)
		switch {
		case err == nil:
			record("publish f=%d body=%q -> ok", flow, body)
		case err == ErrThrottled:
			record("publish f=%d body=%q -> throttled", flow, body)
		default:
			record("publish f=%d body=%q -> error %v", flow, body, err)
		}
	}
	checkpoint := func(label string) {
		record("checkpoint %s work=%d", label, b.WorkUnits())
		for i := range p.Flows {
			fs, _ := b.FlowStats(model.FlowID(i))
			record("  flow %d published=%d throttled=%d rate=%g", i, fs.Published, fs.Throttled, fs.Rate)
		}
		for j := range p.Classes {
			cs, _ := b.ClassStats(model.ClassID(j))
			record("  class %d attached=%d admitted=%d delivered=%d filtered=%d thinned=%d",
				j, cs.Attached, cs.Admitted, cs.Delivered, cs.Filtered, cs.Thinned)
		}
	}

	// Phase 1: nothing admitted — publishes route nowhere.
	pub(0, map[string]float64{"price": 90, "insider": 1}, "pre-admission")
	checkpoint("pre-admission")

	// Phase 2: admit everything except the idle class, publishing a mix
	// that exercises filters and transforms on both flows.
	if err := b.ApplyAllocation(model.Allocation{Rates: []float64{100, 100}, Consumers: []int{2, 2, 1, 0}}); err != nil {
		return "", 0, err
	}
	for i := 0; i < 4; i++ {
		clock.Advance(100 * time.Millisecond)
		price := float64(75 + 5*i) // 75, 80, 85, 90: gt80 matches twice
		pub(0, map[string]float64{"price": price, "insider": 1}, fmt.Sprintf("t%d", i))
		pub(1, map[string]float64{"bid": price - 1}, fmt.Sprintf("q%d", i))
	}
	checkpoint("admitted")

	// Phase 3: thin the public class to ~1 msg/s while gold keeps the
	// full stream.
	if err := b.SetClassRateCap(1, 1); err != nil {
		return "", 0, err
	}
	for i := 0; i < 6; i++ {
		clock.Advance(400 * time.Millisecond)
		pub(0, map[string]float64{"price": 82}, fmt.Sprintf("thin%d", i))
	}
	checkpoint("thinned")

	// Phase 4: shrink admissions (LIFO unadmit), detach the idle
	// consumer (never admitted, so its class counters are untouched; the
	// cumulative-counter semantics of detaching a counted consumer are
	// covered by TestClassStatsCumulativeAcrossDetach), remove the cap,
	// and keep publishing.
	if err := b.ApplyAllocation(model.Allocation{Rates: []float64{100, 100}, Consumers: []int{1, 1, 1, 0}}); err != nil {
		return "", 0, err
	}
	if err := b.DetachConsumer(idle); err != nil {
		return "", 0, err
	}
	if err := b.SetClassRateCap(1, 0); err != nil {
		return "", 0, err
	}
	for i := 0; i < 3; i++ {
		clock.Advance(100 * time.Millisecond)
		pub(0, map[string]float64{"price": 95, "insider": 1}, fmt.Sprintf("late%d", i))
		pub(1, nil, fmt.Sprintf("bare%d", i))
	}
	checkpoint("shrunk")

	// Phase 5: over-publish against a tight budget to hit the throttle
	// path deterministically: re-rate to 5 msg/s, advance 1s (5 tokens,
	// burst caps at 5), then publish 8.
	if err := b.ApplyAllocation(model.Allocation{Rates: []float64{5, 5}, Consumers: []int{1, 1, 1, 0}}); err != nil {
		return "", 0, err
	}
	clock.Advance(time.Second)
	for i := 0; i < 8; i++ {
		pub(0, map[string]float64{"price": 84}, fmt.Sprintf("burst%d", i))
	}
	checkpoint("throttled")

	// Admitted survivor sanity: the earliest-attached gold consumer is
	// still admitted after the shrink.
	adm, err := b.Admitted(goldAll)
	if err != nil {
		return "", 0, err
	}
	record("goldAll admitted=%v", adm)

	return sb.String(), b.WorkUnits(), nil
}

// TestGoldenSerialBehavior proves the data plane's serial semantics —
// delivery sets and order, per-flow sequence numbers, timestamps,
// transform/filter interplay, throttling, thinning, and WorkUnits — are
// bit-identical to the pre-refactor mutex broker.
func TestGoldenSerialBehavior(t *testing.T) {
	transcript, work, err := goldenTranscript()
	if err != nil {
		t.Fatal(err)
	}
	if work != goldenWorkUnits {
		t.Errorf("WorkUnits = %d, want %d", work, goldenWorkUnits)
	}
	sum := sha256.Sum256([]byte(transcript))
	if got := hex.EncodeToString(sum[:]); got != goldenTranscriptSHA256 {
		t.Errorf("transcript hash = %s, want %s\ntranscript:\n%s", got, goldenTranscriptSHA256, transcript)
	}
}
