package broker

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/model"
)

// TestConsumerIDContract pins what a ConsumerID is: its class in the low
// bits.Len(classes) bits and a broker-wide attach sequence above them. An
// ID this broker does not hold is refused by DetachConsumer and Admitted
// with ErrUnknownConsumer and changes nothing; Admitted answers by the
// consumer's position in its class; IDs are never reused and never wrap.
func TestConsumerIDContract(t *testing.T) {
	t.Run("layout", func(t *testing.T) {
		p := fanProblem(5) // bits.Len(5) = 3 class bits
		br, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		shift := bits.Len(uint(len(p.Classes)))
		for seq, class := range []model.ClassID{3, 0, 4, 3} {
			id, err := br.AttachConsumer(class, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := ConsumerID(seq<<shift | int(class)); id != want {
				t.Errorf("attach %d to class %d: id %d, want %d", seq, class, id, want)
			}
		}
	})

	t.Run("unknown IDs change nothing", func(t *testing.T) {
		br, _ := gridBroker(t, 3, 1, 4, 2)
		p := br.p // 2 class bits: class 3 is encodable and out of range
		shift := bits.Len(uint(len(p.Classes)))
		detached := br.classes[1].ids[3]
		if err := br.DetachConsumer(detached); err != nil {
			t.Fatal(err)
		}
		valid := br.classes[2].ids[0] // admitted, class 2
		seq := int64(valid) >> shift
		bad := map[string]ConsumerID{
			"negative":           -1,
			"most negative":      math.MinInt64,
			"class out of range": ConsumerID(seq<<shift | int64(len(p.Classes))),
			"another class's":    ConsumerID(seq<<shift | 0),
			"never issued":       ConsumerID((br.nextSeq+7)<<shift | 2),
			"detached twice":     detached,
		}
		stats, route := br.EnactStats(), br.route.Load()
		classes := br.AllClassStats(nil)
		for name, id := range bad {
			if err := br.DetachConsumer(id); !errors.Is(err, ErrUnknownConsumer) {
				t.Errorf("%s: DetachConsumer(%d) = %v, want ErrUnknownConsumer", name, id, err)
			}
			if adm, err := br.Admitted(id); !errors.Is(err, ErrUnknownConsumer) || adm {
				t.Errorf("%s: Admitted(%d) = %v, %v, want false, ErrUnknownConsumer", name, id, adm, err)
			}
		}
		if br.EnactStats() != stats || br.route.Load() != route {
			t.Error("a refused ID moved EnactStats or republished")
		}
		for j, cs := range br.AllClassStats(nil) {
			if cs != classes[j] {
				t.Errorf("class %d: %+v after the refused IDs, was %+v", j, cs, classes[j])
			}
		}
		if adm, err := br.Admitted(valid); err != nil || !adm {
			t.Errorf("the valid ID beside them: Admitted = %v, %v, want true", adm, err)
		}
	})

	t.Run("admission follows position", func(t *testing.T) {
		br, err := New(fanProblem(2))
		if err != nil {
			t.Fatal(err)
		}
		alloc := model.Allocation{Rates: []float64{100, 100}, Consumers: []int{0, 0}}
		rng := rand.New(rand.NewSource(5))
		var live []ConsumerID // class 1 in attach order, the reference
		admitted := 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(4); {
			case op == 0:
				id, err := br.AttachConsumer(1, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			case op == 1 && len(live) > 0:
				k := rng.Intn(len(live))
				if err := br.DetachConsumer(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
				if k < admitted {
					admitted--
				}
			default: // grow or shrink
				admitted = rng.Intn(len(live) + 1)
				alloc.Consumers[1] = admitted
				if err := br.ApplyAllocation(alloc); err != nil {
					t.Fatal(err)
				}
			}
			alloc.Consumers[1] = admitted
			for k, id := range live {
				adm, err := br.Admitted(id)
				if err != nil {
					t.Fatalf("step %d: consumer %d: %v", step, k, err)
				}
				if want := k < admitted; adm != want {
					t.Fatalf("step %d: consumer %d of %d admitted = %v, want %v (%d admitted)", step, k, len(live), adm, want, admitted)
				}
			}
		}
	})

	t.Run("unique over churn", func(t *testing.T) {
		const ops = 100_000
		p := fanProblem(7)
		br, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		seen := make(map[ConsumerID]bool, ops)
		var live []ConsumerID
		for op := 0; op < ops; op++ {
			if len(live) == 0 || rng.Intn(5) < 3 {
				id, err := br.AttachConsumer(model.ClassID(rng.Intn(len(p.Classes))), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if seen[id] {
					t.Fatalf("op %d: ID %d issued twice", op, id)
				}
				seen[id] = true
				live = append(live, id)
				continue
			}
			k := rng.Intn(len(live))
			if err := br.DetachConsumer(live[k]); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if _, err := br.Admitted(live[k]); !errors.Is(err, ErrUnknownConsumer) {
				t.Fatalf("op %d: a detached ID still answers: %v", op, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, id := range live {
			if _, err := br.Admitted(id); err != nil {
				t.Fatalf("live ID %d lost: %v", id, err)
			}
		}
	})

	t.Run("no wrap", func(t *testing.T) {
		br, err := New(fanProblem(3))
		if err != nil {
			t.Fatal(err)
		}
		br.nextSeq = math.MaxInt64 >> br.classBits
		last, err := br.AttachConsumer(2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if last < 0 || last&(1<<br.classBits-1) != 2 {
			t.Errorf("the last ID %d does not carry class 2", last)
		}
		if _, err := br.AttachConsumer(2, nil, nil); !errors.Is(err, ErrConsumerIDsExhausted) {
			t.Errorf("attach past the last sequence: err = %v, want ErrConsumerIDsExhausted", err)
		}
		if cs, _ := br.ClassStats(2); cs.Attached != 1 {
			t.Errorf("class 2 holds %d consumers after the refused attach, want 1", cs.Attached)
		}
		if adm, err := br.Admitted(last); err != nil || adm {
			t.Errorf("the last ID: Admitted = %v, %v, want false, nil", adm, err)
		}
	})
}

// TestConsumerChurnCost: a consumer is a slot in its class's arrays, not
// an object of its own. Attaching allocates only when a class's arrays
// grow (amortized, no object per consumer), and detaching a consumer no
// snapshot ever held allocates nothing.
func TestConsumerChurnCost(t *testing.T) {
	const runs = 2000
	br, err := New(fanProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	if attach := testing.AllocsPerRun(runs, func() {
		if _, err := br.AttachConsumer(1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}); attach != 0 {
		t.Errorf("AttachConsumer allocates %g objects per consumer, want 0 amortized", attach)
	}
	for k := 0; k < 8; k++ { // AllocsPerRun calls once more than runs
		if _, err := br.AttachConsumer(1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := br.ApplyAllocation(model.Allocation{Rates: []float64{100, 100, 100, 100}, Consumers: []int{0, 4, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	cs := &br.classes[1]
	if detach := testing.AllocsPerRun(runs, func() {
		if err := br.DetachConsumer(cs.ids[cs.admitted]); err != nil {
			t.Fatal(err)
		}
	}); detach != 0 {
		t.Errorf("detaching a never-admitted consumer allocates %g objects, want 0", detach)
	}
	if cs.admitted != 4 || len(cs.ids) != 8 || len(cs.handlers) != 8 {
		t.Errorf("class 1 holds %d handlers, %d ids and %d admitted, want 8, 8 and 4", len(cs.handlers), len(cs.ids), cs.admitted)
	}
}

// TestConsumerFootprint: an unfiltered consumer costs its class one
// handler word and one ID word, plus the arrays' spare capacity, and no
// filter word: a few thousand of them hold at most 32 live heap bytes
// each after a GC.
func TestConsumerFootprint(t *testing.T) {
	const consumers = 5000
	br, err := New(fanProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	h := func(Message) {}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Two collections: the first leaves sync.Pool victims behind.
	live := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	var m0, m1 runtime.MemStats
	live(&m0)
	for k := 0; k < consumers; k++ {
		if _, err := br.AttachConsumer(model.ClassID(k%4), nil, h); err != nil {
			t.Fatal(err)
		}
	}
	live(&m1)
	runtime.KeepAlive(br)
	perConsumer := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / consumers
	t.Logf("%.1f live heap bytes per unfiltered consumer", perConsumer)
	if perConsumer > 32 {
		t.Errorf("%d unfiltered consumers hold %.1f live heap bytes each, want at most 32", consumers, perConsumer)
	}
}
