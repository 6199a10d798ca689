package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// spec reads the benchmark description from the repository root.
func spec(t *testing.T) benchSpec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// checkMetrics fails unless res carries every metric of want with its
// unit.
func checkMetrics(t *testing.T, res result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny scale, untraced
// and traced: each run must pass its output checks and print every metric
// BENCHMARK.json names with its unit, and both runs must print the same
// output digest.
func TestSmokeEveryWorkload(t *testing.T) {
	s := spec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 3, seconds: 0.01, scale: 0.02,
				out: t.TempDir(), setups: 1, minPass: 1}
			plain, d1, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 || plain.Attempted < 1 {
				t.Errorf("untraced run: correct=%v failed %d of %d", plain.Correct, plain.Failed, plain.Attempted)
			}
			checkMetrics(t, plain, s.EndToEnd)

			o.trace = true
			traced, d2, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Errorf("traced run: failed %d of %d", traced.Failed, traced.Attempted)
			}
			checkMetrics(t, traced, s.PerLayer)
			if d1 != d2 {
				t.Errorf("untraced digest %s, traced digest %s", d1, d2)
			}
		})
	}
}

// TestStoredReferences checks that the benchmark-size outputs still match
// the digests stored in reference.json (slow: skipped with -short).
func TestStoredReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size passes")
	}
	data, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(data, &refs); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if len(refs[name]) == 0 {
			t.Errorf("no stored reference for %s", name)
		}
		o := options{workload: name, seed: 1, scale: 1, out: t.TempDir()}
		wl, err := newWorkload(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.setup(); err != nil {
			t.Fatal(err)
		}
		p, err := wl.pass(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := refs[name]["1"]; p.digest != want {
			t.Errorf("%s seed 1: digest %s, stored %s", name, p.digest, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, v := range base {
		faster[i] = v * 0.8
		slower[i] = v * 1.3
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{{base, "unchanged"}, {faster, "better"}, {slower, "WORSE"}} {
		if got, _, _ := verdict(base, c.b, true, 0.2); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if got, _, _ := verdict(noisy, base, true, 0.2); got != "unresolved" {
		t.Errorf("noisy parent: verdict = %s, want unresolved", got)
	}
}

func TestCompareFlagsDigestChange(t *testing.T) {
	rec := func(digest string, wall float64) record {
		return record{Workload: "eval-audio", Seed: 1, Digest: digest,
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {wall, "s"}}}}
	}
	var buf bytes.Buffer
	err := compare(&buf, benchSpec{EndToEnd: []specMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.2}}},
		[]record{rec("aaaa", 1)}, []record{rec("bbbb", 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "OUTPUT DIGEST CHANGED") {
		t.Errorf("digest change not flagged:\n%s", buf.String())
	}
}
