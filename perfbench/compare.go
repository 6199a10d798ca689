package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// record is one run, as --record appends it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"digest"`
	Result   result `json:"result"`
}

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain compares two sets of runs — the parent's (A) and the
// change's (B), each a JSONL file written with --record — and prints, per
// workload and metric, each side's median and quartiles, a verdict
// against the metric's bound, the pair wins of B over A, and a flag for
// any seed whose output digest differs between the sides.
func compareMain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	return compare(w, spec, a, b)
}

// verdict classifies B against A for one metric. A gain needs B to win
// at least nine tenths of the pairs and the medians to differ by more
// than A's own quartile spread; a loss is a median worse by more than
// the bound; a spread wider than the bound leaves the metric unresolved
// unless every run of one side beats every run of the other.
func verdict(av, bv []float64, lower bool, bound float64) (string, int, int) {
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	pairs := min(len(av), len(bv))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(bv[i], av[i]) {
			wins++
		}
	}
	ma, mb := median(av), median(bv)
	spreadA := quantile(av, 0.75) - quantile(av, 0.25)
	worse := (mb - ma) / ma
	if !lower {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > spreadA && worse < 0:
		return "better", wins, pairs
	case bound > 0 && spreadA/math.Abs(ma) > bound && !allBetter && !allWorse:
		return "unresolved", wins, pairs
	case bound > 0 && worse > bound:
		return "WORSE", wins, pairs
	case bound == 0 && allWorse:
		return "worse", wins, pairs
	}
	return "unchanged", wins, pairs
}

func compare(w io.Writer, spec benchSpec, a, b []record) error {
	byWorkload := func(rs []record, trace bool) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			if r.Trace == trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tverdict")
	for _, traced := range []bool{false, true} {
		metrics := spec.EndToEnd
		if traced {
			metrics = spec.PerLayer
		}
		wa, wb := byWorkload(a, traced), byWorkload(b, traced)
		var names []string
		for name := range wa {
			if _, ok := wb[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			for _, sm := range metrics {
				av, bv := values(wa[name], sm.Name), values(wb[name], sm.Name)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				v, wins, pairs := verdict(av, bv, sm.Better == "lower", sm.Bound)
				change := "n/a"
				if ma := median(av); ma != 0 {
					change = fmt.Sprintf("%+.1f%%", (median(bv)-ma)/math.Abs(ma)*100)
				}
				fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%s\n",
					name, sm.Name, sm.Unit,
					median(av), quantile(av, 0.25), quantile(av, 0.75),
					median(bv), quantile(bv, 0.25), quantile(bv, 0.75),
					change, wins, pairs, v)
			}
			for _, d := range digestChanges(wa[name], wb[name]) {
				fmt.Fprintf(tw, "%s\tOUTPUT DIGEST CHANGED\t%s\t\t\t\tbehaviour change\n", name, d)
			}
		}
	}
	return tw.Flush()
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// digestChanges lists the seeds run on both sides whose output digests
// differ: a change that moves an output is a behaviour change, not a
// speed-up.
func digestChanges(a, b []record) []string {
	seen := map[int64]string{}
	for _, r := range a {
		seen[r.Seed] = r.Digest
	}
	var out []string
	done := map[int64]bool{}
	for _, r := range b {
		if d, ok := seen[r.Seed]; ok && d != r.Digest && !done[r.Seed] {
			done[r.Seed] = true
			out = append(out, fmt.Sprintf("seed %d: %s -> %s", r.Seed, d, r.Digest))
		}
	}
	return out
}
