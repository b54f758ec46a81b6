package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"parbitonic"
)

type result struct {
	Correct   *bool             `json:"correct"`
	Attempted *int              `json:"attempted"`
	Failed    *int              `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes a short run of workload and parses the last line of its
// output.
func run(t *testing.T, name string, trace bool, tamper func(any, *parbitonic.Result)) result {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	o := runOpts{workload: name, seed: 7, seconds: 0.3, trace: trace, spansDir: t.TempDir(), tamper: tamper}
	rep, err := w.run(o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	out := bufio.NewWriter(&buf)
	if err := writeResult(out, w, o, rep); err != nil {
		t.Fatal(err)
	}
	out.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
		t.Fatalf("%s: result line lacks a key: %s", name, lines[len(lines)-1])
	}
	return res
}

func TestShortRunPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := run(t, w.name, trace, nil)
			want := endToEnd
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < minOps {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, *res.Correct, *res.Attempted, *res.Failed)
			}
		}
	}
}

// TestWrongOutputIsCounted corrupts every operation's output and
// expects every operation to be counted as failed.
func TestWrongOutputIsCounted(t *testing.T) {
	for _, w := range workloads {
		res := run(t, w.name, false, func(out any, _ *parbitonic.Result) {
			switch out := out.(type) {
			case []uint32:
				out[len(out)/2] ^= 1
			case []parbitonic.KV64:
				out[len(out)/2].V ^= 1 // keys stay sorted: only the checksum can tell
			}
		})
		if *res.Correct || *res.Failed != *res.Attempted {
			t.Errorf("%s: corrupted outputs gave correct=%v, %d of %d failed", w.name, *res.Correct, *res.Failed, *res.Attempted)
		}
	}
}

// TestAlteredModelTimeIsCounted leaves the sorted keys intact but
// alters the simulator's reported model time.
func TestAlteredModelTimeIsCounted(t *testing.T) {
	res := run(t, "sim-p16-u32-64k", false, func(_ any, r *parbitonic.Result) {
		r.Time += 0.01
	})
	if *res.Correct || *res.Failed != *res.Attempted {
		t.Errorf("altered model time gave correct=%v, %d of %d failed", *res.Correct, *res.Failed, *res.Attempted)
	}
}
