package model_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/utility"
	"repro/internal/workload"
)

var updateJSON = flag.Bool("update-json", false, "rewrite testdata/json from the running code")

// goldenProblems are the problems whose JSON is pinned byte for byte.
// Scaled's second copy and the ring's relays see flows 10 and 11, so their
// cost objects show encoding/json's string-sorted keys ("1","10","11","2").
func goldenProblems(t *testing.T) map[string]*model.Problem {
	tp := overlay.Ring(8, 1e4)
	var flows []overlay.FlowSpec
	for fi := 0; fi < 12; fi++ {
		flows = append(flows, overlay.FlowSpec{
			Name: fmt.Sprintf("f%d", fi), Source: model.NodeID(fi % 8),
			RateMin: 1, RateMax: 50, LinkCost: 1 + float64(fi)/8, NodeCost: 2,
			Classes: []overlay.ClassSpec{{
				Name: "c", Node: model.NodeID((fi*3 + 2) % 8),
				MaxConsumers: 20, CostPerConsumer: 3, Utility: utility.NewLog(5),
			}},
		})
	}
	r, err := overlay.NewRouter(tp, []float64{1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3}, flows)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*model.Problem{
		"base":        workload.Base(),
		"scaled_2x2":  workload.Scaled(workload.Config{FlowCopies: 2, NodeSetCopies: 2}),
		"metro_small": workload.MetroSmall(),
		"ring_router": r.Problem(),
	}
}

// TestProblemJSONGolden pins json.Marshal of the workload presets and of a
// Router's problem (idle links included) against testdata/json, recorded
// from map-valued cost fields: the bytes, a decode–encode round trip that
// returns them, and the problem re-marshaled from its decoded form.
// MetroSmall's 1.7 MB are pinned by SHA-256 and length.
func TestProblemJSONGolden(t *testing.T) {
	for name, p := range goldenProblems(t) {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hashed := name == "metro_small"
		path := filepath.Join("testdata", "json", name+".json")
		got := data
		if hashed {
			path += ".sha256"
			got = []byte(fmt.Sprintf("%x %d\n", sha256.Sum256(data), len(data)))
		}
		if *updateJSON {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: JSON differs from %s (%d bytes, want %d)", name, path, len(got), len(want))
		}

		var back model.Problem
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: decode then encode changed the bytes", name)
		}
	}
}

// TestCostsJSONDecoding: a cost object decodes as the map it was written
// from: the last of a duplicated key wins, and an empty object is omitted
// when the problem is encoded again.
func TestCostsJSONDecoding(t *testing.T) {
	in := `{"flows":[{"id":0,"source":0,"rateMin":1,"rateMax":10},{"id":1,"source":0,"rateMin":1,"rateMax":10}],` +
		`"classes":[{"id":0,"flow":0,"node":0,"maxConsumers":1,"costPerConsumer":1,"utility":{"kind":"log","scale":1}}],` +
		`"nodes":[{"id":0,"capacity":100,"flowCost":{"1":4,"0":1,"1":2}},{"id":1,"capacity":100,"flowCost":{}}],` +
		`"links":[{"id":0,"from":0,"to":1,"capacity":5,"flowCost":{}}]}`
	var p model.Problem
	if err := json.Unmarshal([]byte(in), &p); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`{"id":0,"capacity":100,"flowCost":{"0":1,"1":2}}`,
		`{"id":1,"capacity":100}`,
		`{"id":0,"from":0,"to":1,"capacity":5}`,
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("re-encoded problem lacks %s:\n%s", want, out)
		}
	}
}
