// Command perfbench is the repository's benchmark. One run drives one
// named workload through the public API of the internal packages, in this
// process, for a fixed measuring time, checks that every output is
// correct, and prints one JSON object as the last line of standard output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload eval-audio --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare before.jsonl after.jsonl
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it is the traced run: it records one span per call
// the benchmark makes into a layer, replays each layer's public calls on
// the workload's own inputs, writes the spans, a CPU profile and its top
// functions under --out, and prints the per-layer metrics. See README.md
// in this directory for every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passOut is the outcome of one timed unit of a workload's work.
type passOut struct {
	wall      float64 // seconds of the timed calls
	cpu       float64 // process CPU seconds over the same calls
	events    float64 // units of work done: simulated samples or frames
	attempted int     // operations and output checks attempted
	failed    int     // of which failed
	problems  []string
	digest    string // digest of every output of the pass
	// latencyMS, when latencyN > 0, holds the per-request latency
	// quantiles (p50, p99, p99.9) over the latencyN requests of this pass
	// and every earlier one.
	latencyMS [3]float64
	latencyN  int64
}

// workload is one named set of inputs and the work the benchmark times.
type workload interface {
	// setup builds the inputs from the seed. It is run several times to
	// time set-up; the last build is the one the passes use.
	setup() error
	// pass does one timed unit of work. rec, when non-nil, records a
	// span, child of parent, around each call the pass makes into a layer.
	pass(rec *recorder, parent int) (passOut, error)
	// layers replays each layer's public calls on the workload's inputs
	// under rec and returns the per-layer metrics those spans give.
	layers(rec *recorder) (map[string]metric, error)
}

// options are the run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for spans, profiles and scratch files
	record   string // append a JSONL record of the run to this file
	// scale multiplies the input sizes (1 is the benchmark's size; the
	// tests run a small one), setups is how many set-ups setup_s is the
	// median of, and minPass how many passes run even past --seconds.
	scale   float64
	setups  int
	minPass int
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"eval-audio", "eval-accel", "eval-fleet", "ingest"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "eval-audio", "eval-accel", "eval-fleet":
		return newEvalWorkload(o), nil
	case "ingest":
		return newIngestWorkload(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", o.workload, strings.Join(workloadNames, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed (same seed, same inputs)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for spans, profiles and scratch files")
	flag.StringVar(&o.record, "record", "", "append a JSONL record of the run (for compare) to this file")
	flag.Parse()
	o.scale, o.setups, o.minPass = 1, 5, 3
	o.trace = traceFlag == 1

	res, digest, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.record != "" {
		if err := appendRecord(o, res, digest); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result line and the
// digest of its outputs. Progress and diagnostics go to log.
func run(o options, log io.Writer) (result, string, error) {
	if o.seconds <= 0 || o.scale <= 0 || o.setups < 1 || o.minPass < 1 {
		return result{}, "", errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, "", err
	}
	wl, err := newWorkload(o)
	if err != nil {
		return result{}, "", err
	}
	want, err := referenceDigest(o)
	if err != nil {
		return result{}, "", err
	}
	setups := make([]float64, 0, o.setups)
	runs := o.setups
	if o.trace {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		runtime.GC()
		t, err := timed(wl.setup)
		if err != nil {
			return result{}, "", fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t)
	}
	fmt.Fprintf(log, "%s seed %d: set-up %.3f s (median of %d)\n", o.workload, o.seed, median(setups), len(setups))
	if o.trace {
		return tracedRun(o, wl, want, log)
	}

	var passes []passOut
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) < o.minPass || time.Now().Before(deadline) {
		p, err := wl.pass(nil, 0)
		if err != nil {
			return result{}, "", fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		passes = append(passes, p)
	}
	res, digest := summarize(passes, want, log)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, digest, nil
}

// referenceFile holds the output digests the benchmark stores, by
// workload and seed, relative to the repository root.
const referenceFile = "perfbench/reference.json"

// referenceDigest returns the output digest the benchmark stores for the
// run's workload and seed, or "" when it stores none or the inputs are
// not at full size.
func referenceDigest(o options) (string, error) {
	if o.scale != 1 {
		return "", nil
	}
	data, err := os.ReadFile(referenceFile)
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(data, &refs); err != nil {
		return "", fmt.Errorf("%s: %w", referenceFile, err)
	}
	return refs[o.workload][strconv.FormatInt(o.seed, 10)], nil
}

// summarize folds the measured passes into the end-to-end metrics. A
// digest that differs between passes of one run, or from the stored
// reference want (when not ""), is itself a failed check: the same inputs
// must give the same outputs.
func summarize(passes []passOut, want string, log io.Writer) (result, string) {
	res := result{Metrics: map[string]metric{}}
	var walls, rates []float64
	var problems []string
	for i, p := range passes {
		walls = append(walls, p.wall)
		rates = append(rates, p.events/p.wall)
		res.Attempted += p.attempted + 1
		res.Failed += p.failed
		if p.digest != passes[0].digest {
			res.Failed++
			problems = append(problems, fmt.Sprintf("pass %d digest %s differs from pass 1 %s", i+1, p.digest, passes[0].digest))
		}
		problems = append(problems, p.problems...)
	}
	if want != "" {
		res.Attempted++
		if passes[0].digest != want {
			res.Failed++
			problems = append(problems, fmt.Sprintf("output digest %s differs from the stored reference %s", passes[0].digest, want))
		}
	}
	// Per-request latency: the last pass's quantiles cover the requests
	// of every pass so far.
	last := passes[len(passes)-1]
	lat, n := last.latencyMS, last.latencyN
	if n == 0 {
		// A batch workload's request is one whole pass.
		lat = [3]float64{quantile(walls, 0.5) * 1e3, quantile(walls, 0.99) * 1e3, quantile(walls, 0.999) * 1e3}
		n = int64(len(walls))
	}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["events_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{lat[0], "ms"}
	res.Metrics["latency_p99_ms"] = metric{lat[1], "ms"}
	res.Metrics["latency_p999_ms"] = metric{lat[2], "ms"}
	res.Metrics["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	res.Correct = res.Failed == 0
	for _, p := range problems {
		fmt.Fprintln(log, "check failed:", p)
	}
	fmt.Fprintf(log, "%d passes, wall %.3f-%.3f s; latency quantiles over %d requests; failed %d of %d; digest %s\n",
		len(passes), quantile(walls, 0), maxOf(walls), n, res.Failed, res.Attempted, passes[0].digest)
	return res, passes[0].digest
}

// tracedRun is the --trace 1 run: one untraced pass, the same pass with
// spans (their difference is the tracing overhead), the layer replays,
// and a profiled pass whose top functions land next to the spans.
func tracedRun(o options, wl workload, want string, log io.Writer) (result, string, error) {
	plain, err := wl.pass(nil, 0)
	if err != nil {
		return result{}, "", fmt.Errorf("untraced pass: %w", err)
	}
	rec := newRecorder()
	var traced passOut
	if _, err := rec.do(0, "perfbench", "pass", func(id int) (err error) {
		traced, err = wl.pass(rec, id)
		return err
	}); err != nil {
		return result{}, "", fmt.Errorf("traced pass: %w", err)
	}
	layerMetrics, err := wl.layers(rec)
	if err != nil {
		return result{}, "", fmt.Errorf("layer replay: %w", err)
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	top, shares, err := profilePass(wl, base)
	if err != nil {
		return result{}, "", fmt.Errorf("profiled pass: %w", err)
	}

	res, digest := summarize([]passOut{plain, traced}, want, log)
	res.Metrics = layerMetrics
	for k, v := range shares {
		res.Metrics[k] = v
	}
	workers := float64(runtime.GOMAXPROCS(0))
	res.Metrics["eval.cpu_s"] = metric{plain.cpu, "s"}
	res.Metrics["parallel.busy_frac"] = metric{plain.cpu / (plain.wall * workers), "ratio"}
	res.Metrics["trace.overhead_s"] = metric{traced.wall - plain.wall, "s"}
	res.Metrics["trace.spans"] = metric{float64(rec.count()), "count"}

	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return result{}, "", err
	}
	err = rec.writeChromeJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, "", err
	}
	fmt.Fprintf(log, "tracing overhead: traced pass %.3f s - untraced pass %.3f s = %+.3f s\n",
		traced.wall, plain.wall, traced.wall-plain.wall)
	fmt.Fprintf(log, "spans: %s.trace.json (%d); profile top: %s.top.txt\n", base, rec.count(), base)
	fmt.Fprint(log, top)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, digest, nil
}

// appendRecord appends one JSON line describing the run, the input of
// the compare subcommand.
func appendRecord(o options, res result, digest string) error {
	f, err := os.OpenFile(o.record, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Digest: digest, Result: res})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
