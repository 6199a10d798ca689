package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/eval"
	"sidewinder/internal/parallel"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
)

// evalCall is one public experiment call of an eval workload. It returns
// the rendered output and every ratio the output claims lies in [0,1].
type evalCall struct {
	name string
	run  func(o eval.Options, w *eval.Workload) (out string, ratios []float64, err error)
}

// evalSpec sizes an eval workload's traces and lists its calls.
type evalSpec struct {
	robot, audio, human time.Duration // per-trace durations at scale 1
	calls               []evalCall
	// reads lists the traces the calls replay; their samples are the
	// pass's events.
	reads func(w *eval.Workload) [][]*sensor.Trace
}

var evalSpecs = map[string]evalSpec{
	// The 4 kHz microphone traces dominate: predefined-activity replay,
	// the FFT chain and the adaptive loop.
	"eval-audio": {robot: 2 * time.Minute, audio: 150 * time.Second, human: 30 * time.Second,
		calls: []evalCall{callTable2, callAdaptive},
		reads: func(w *eval.Workload) [][]*sensor.Trace { return [][]*sensor.Trace{w.Audio, w.RobotGroup(2)} }},
	// Many short 50 Hz cells and no FFT; the condition ablation's
	// three-axis join.
	"eval-accel": {robot: 8 * time.Minute, audio: 10 * time.Second, human: 8 * time.Minute,
		calls: []evalCall{callFigure5, callFigure6, callFigure7, callConditionAblation},
		reads: func(w *eval.Workload) [][]*sensor.Trace { return [][]*sensor.Trace{w.RobotRuns, w.Human} }},
	// Admission, cross-app sharing and the merged interpreter.
	"eval-fleet": {robot: 40 * time.Second, audio: 10 * time.Second, human: 2 * time.Minute,
		calls: []evalCall{callFleetCapacity},
		reads: func(w *eval.Workload) [][]*sensor.Trace { return [][]*sensor.Trace{w.RobotRuns, w.Human, w.Audio} }},
}

var (
	callTable2 = evalCall{"Table2", func(_ eval.Options, w *eval.Workload) (string, []float64, error) {
		r, err := eval.Table2(w)
		if err != nil {
			return "", nil, err
		}
		out := fmt.Sprintf("%s(calibrated significant-sound threshold: %.4g; devices: %v)\n", r.Table.Render(), r.PAThreshold, r.Devices)
		var ratios []float64
		for _, m := range r.Recall {
			ratios = appendValues(ratios, m)
		}
		return out, ratios, nil
	}}
	callAdaptive = evalCall{"Adaptive", func(_ eval.Options, w *eval.Workload) (string, []float64, error) {
		r, err := eval.Adaptive(w)
		if err != nil {
			return "", nil, err
		}
		ratios := appendValues(appendValues(nil, r.Recall), r.MissedRate)
		return r.Table.Render(), ratios, nil
	}}
	callFigure5 = evalCall{"Figure5", func(o eval.Options, w *eval.Workload) (string, []float64, error) {
		r, err := eval.Figure5(o, w)
		if err != nil {
			return "", nil, err
		}
		var b strings.Builder
		for _, t := range r.Tables {
			b.WriteString(t.Render())
		}
		fmt.Fprintf(&b, "(calibrated significant-motion threshold: %.4g)\n", r.PAThreshold)
		ratios := appendValues(nil, r.Precision)
		for _, groups := range r.Recall {
			for _, m := range groups {
				ratios = appendValues(ratios, m)
			}
		}
		return b.String(), ratios, nil
	}}
	callFigure6 = evalCall{"Figure6", func(o eval.Options, w *eval.Workload) (string, []float64, error) {
		r, err := eval.Figure6(o, w)
		if err != nil {
			return "", nil, err
		}
		var ratios []float64
		for _, m := range r.Recall {
			ratios = appendValues(ratios, m)
		}
		return r.Table.Render(), ratios, nil
	}}
	callFigure7 = evalCall{"Figure7", func(o eval.Options, w *eval.Workload) (string, []float64, error) {
		r, err := eval.Figure7(o, w)
		if err != nil {
			return "", nil, err
		}
		var ratios []float64
		for _, m := range r.Recall {
			ratios = appendValues(ratios, m)
		}
		return r.Table.Render(), ratios, nil
	}}
	callConditionAblation = evalCall{"ConditionAblation", func(_ eval.Options, w *eval.Workload) (string, []float64, error) {
		r, err := eval.ConditionAblation(w)
		if err != nil {
			return "", nil, err
		}
		return r.Table.Render(), appendValues(nil, r.Recall), nil
	}}
	callFleetCapacity = evalCall{"FleetCapacity", func(o eval.Options, w *eval.Workload) (string, []float64, error) {
		var b strings.Builder
		var ratios []float64
		for _, seed := range fleetSeeds(o.Seed) {
			o.Seed = seed
			r, err := eval.FleetCapacity(o, w)
			if err != nil {
				return "", nil, err
			}
			b.WriteString(r.Table.Render())
			for _, m := range sortedKeys(r.Runs) {
				run := r.Runs[m]
				ratios = append(ratios, run.AdmissionRate(), run.DegradationRate())
				// Every simulated cell enters the digest, not just the table.
				for _, c := range run.Cells {
					fmt.Fprintf(&b, "%d %+v\n", m, c)
					ratios = append(ratios, c.CycleFrac, c.RAMFrac)
				}
			}
		}
		return b.String(), ratios, nil
	}}
)

// fleetSweeps is how many FleetCapacity sweeps one eval-fleet pass runs.
// Each sweep draws only 16 phones per app mix, so which phones draw the
// FFT-heavy audio apps swings one sweep's cost by seed; several sweeps
// per pass average the draw.
const fleetSweeps = 32

// fleetSeeds derives the pass's sweep seeds from the workload seed.
func fleetSeeds(seed int64) []int64 {
	seeds := make([]int64, fleetSweeps)
	for i := range seeds {
		seeds[i] = seed*fleetSweeps + int64(i)
	}
	return seeds
}

func appendValues[K comparable](dst []float64, m map[K]float64) []float64 {
	for _, v := range m {
		dst = append(dst, v)
	}
	return dst
}

// evalWorkload is a batch job over the evaluation harness: each pass runs
// the spec's experiment calls with Workers = GOMAXPROCS.
type evalWorkload struct {
	name string
	spec evalSpec
	opts eval.Options
	w    *eval.Workload
	// scale and out size and place the small ingest replay of the traced
	// run.
	scale float64
	out   string
}

func newEvalWorkload(o options) *evalWorkload {
	spec := evalSpecs[o.workload]
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * o.scale).Round(time.Second)
	}
	ew := &evalWorkload{
		name:  o.workload,
		spec:  spec,
		scale: o.scale,
		out:   o.out,
		opts: eval.Options{
			Seed:             o.seed,
			Workers:          parallel.DefaultWorkers(),
			RobotRunDuration: max(scale(spec.robot), 2*time.Second),
			AudioDuration:    max(scale(spec.audio), 2*time.Second),
			HumanDuration:    max(scale(spec.human), 2*time.Second),
		},
	}
	return ew
}

func (e *evalWorkload) setup() error {
	w, err := eval.GenerateWorkload(e.opts)
	if err != nil {
		return err
	}
	e.w = w
	return nil
}

// traceSamples counts the simulated input samples the workload's traces hold,
// over every channel.
func traceSamples(traces ...[]*sensor.Trace) float64 {
	var n float64
	for _, group := range traces {
		for _, tr := range group {
			n += float64(tr.Len() * len(tr.Channels))
		}
	}
	return n
}

func (e *evalWorkload) pass(rec *recorder, parent int) (passOut, error) {
	var p passOut
	outs := make([]string, len(e.spec.calls))
	ratios := make([][]float64, len(e.spec.calls))
	errs := make([]error, len(e.spec.calls))
	cpu0 := cpuSeconds()
	p.wall, _ = timed(func() error {
		for i, c := range e.spec.calls {
			// Errors are checks here, not aborts: every call is attempted.
			rec.do(parent, "eval", c.name, func(int) error {
				outs[i], ratios[i], errs[i] = c.run(e.opts, e.w)
				return errs[i]
			})
		}
		return nil
	})
	p.cpu = cpuSeconds() - cpu0
	p.events = traceSamples(e.spec.reads(e.w)...)

	for i, c := range e.spec.calls {
		p.attempted++
		if errs[i] != nil {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("%s: %v", c.name, errs[i]))
			continue
		}
		for _, v := range ratios[i] {
			p.attempted++
			if !(v >= 0 && v <= 1) || math.IsNaN(v) {
				p.failed++
				p.problems = append(p.problems, fmt.Sprintf("%s: ratio %v outside [0,1]", c.name, v))
			}
		}
	}
	out := strings.Join(outs, "\n")
	sum := sha256.Sum256([]byte(out))
	p.digest = hex.EncodeToString(sum[:8])
	return p, nil
}

// layers replays every layer on this workload's traces: the common cell
// matrix per modality plus the cells and fleet sweeps the workload's own
// experiments run, and a small ingest replay for the daemon's layers.
func (e *evalWorkload) layers(rec *recorder) (map[string]metric, error) {
	w := e.w
	accel := append(append([]*sensor.Trace(nil), w.RobotRuns...), w.Human...)
	in := layerInputs{synth: tracegenCalls(e.opts)}
	switch e.name {
	case "eval-audio":
		in.modalities = []modality{
			{sim.SignificantSound, w.Audio, apps.AudioApps()},
			{sim.SignificantMotion, w.RobotGroup(2), []*apps.App{apps.Steps(), apps.Transitions()}},
		}
	case "eval-accel":
		in.modalities = []modality{{sim.SignificantMotion, accel, apps.AccelApps()}}
		for _, app := range apps.AccelApps() {
			for _, tr := range w.RobotRuns {
				for _, s := range []sim.Strategy{sim.AlwaysAwake{}, sim.DutyCycling{SleepSec: 10}, sim.Batching{SleepSec: 10}} {
					in.extra = append(in.extra, cell{s, app, tr})
				}
			}
		}
		for _, v := range eval.StepsConditionVariants() {
			app := *apps.Steps()
			app.Wake = v.Wake
			for _, tr := range w.RobotGroup(2) {
				in.extra = append(in.extra, cell{sim.Sidewinder{}, &app, tr})
			}
		}
	case "eval-fleet":
		in.modalities = []modality{
			{sim.SignificantMotion, accel, apps.AccelApps()},
			{sim.SignificantSound, w.Audio, apps.AudioApps()},
		}
		// eval.FleetCapacity's sweeps: 16 phones per app-mix size.
		for _, seed := range fleetSeeds(e.opts.Seed) {
			for mi, m := range []int{1, 2, 4, 6} {
				in.fleet = append(in.fleet, sim.FleetRunConfig{
					Devices: 16, AppsPerDevice: m, Seed: seed + int64(mi)*0x5EED,
					Workers: e.opts.Workers, Accel: accel, Audio: w.Audio,
				})
			}
		}
	}
	m, err := replayLayers(rec, in)
	if err != nil {
		return nil, err
	}
	// The daemon's layers on a small population from the same seed.
	mini := newIngestWorkload(options{seed: e.opts.Seed, scale: 0.05 * e.scale, out: e.out})
	if err := mini.setup(); err != nil {
		return nil, err
	}
	p, err := mini.pass(rec, 0)
	if err != nil {
		return nil, err
	}
	if p.failed > 0 {
		return nil, fmt.Errorf("ingest replay failed its checks: %v", p.problems)
	}
	return m, replayIngestLayers(rec, mini, m)
}
