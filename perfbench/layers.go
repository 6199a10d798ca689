package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/eval"
	"sidewinder/internal/fleetd"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/link"
	"sidewinder/internal/parallel"
	"sidewinder/internal/sched"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// The traced run measures every layer from outside: it calls each
// layer's public API on the workload's own inputs, one span per call, and
// derives the per-layer numbers from the spans and from the counters the
// public API exposes (an InterpProfile, the daemon's registry).

// modality is one sensor family of a workload's inputs: the traces it
// replays and the applications that consume them.
type modality struct {
	kind   sim.PAKind
	traces []*sensor.Trace
	apps   []*apps.App
}

// cell is one (strategy, application, trace) simulation.
type cell struct {
	s   sim.Strategy
	app *apps.App
	tr  *sensor.Trace
}

// layerInputs is what a workload hands the layer replay.
type layerInputs struct {
	modalities []modality
	// synth are the workload's trace-synthesis calls, replayed for the
	// tracegen layer.
	synth []func() (*sensor.Trace, error)
	// afterSynth, when set, fills the fields that read the synthesized
	// traces; it runs once the synthesis calls have.
	afterSynth func(in *layerInputs)
	// extra are workload-specific cells on top of the common matrix.
	extra []cell
	// fleet are the sim.FleetRun configurations the workload runs.
	fleet []sim.FleetRunConfig
}

// windowN is the FFT size of the audio pipelines' windows (apps'
// audioWin), the size dsp.fft_ns is measured at.
const windowN = 1024

// blockN is the chunk size the interpreter replays push.
const blockN = 1024

// joinKinds are the stage kinds the interpreter runs as an N-port join.
var joinKinds = []core.AlgorithmKind{core.KindVectorMagnitude, core.KindRatio, core.KindAnd}

// replayLayers replays the tracegen, sim, apps, ir, interp, sched and dsp
// layers and returns their metrics.
func replayLayers(rec *recorder, in layerInputs) (map[string]metric, error) {
	m := map[string]metric{}
	workers := parallel.DefaultWorkers()
	cat := core.DefaultCatalog()

	// tracegen: the workload's synthesis calls, one span each.
	var samples float64
	for _, gen := range in.synth {
		var tr *sensor.Trace
		if _, err := rec.do(0, "tracegen", "synthesize", func(int) (err error) {
			tr, err = gen()
			return err
		}); err != nil {
			return nil, err
		}
		samples += float64(tr.Len() * len(tr.Channels))
	}
	m["tracegen.busy_s"] = metric{rec.busy("tracegen", ""), "s"}
	m["tracegen.samples"] = metric{samples, "count"}
	if in.afterSynth != nil {
		in.afterSynth(&in)
	}

	// sim: calibrate the predefined-activity threshold per modality, then
	// the common cell matrix plus the workload's own cells, fanned out
	// like the harness does.
	var cells []cell
	for _, md := range in.modalities {
		var th float64
		if _, err := rec.do(0, "sim", "CalibratePA", func(int) (err error) {
			th, err = eval.CalibratePA(workers, md.kind, md.traces, md.apps, nil)
			return err
		}); err != nil {
			return nil, err
		}
		for _, app := range md.apps {
			for _, tr := range md.traces {
				for _, s := range []sim.Strategy{
					sim.Oracle{},
					sim.PredefinedActivity{Kind: md.kind, Threshold: th},
					sim.Sidewinder{},
					sim.AdaptiveSidewinder{},
				} {
					cells = append(cells, cell{s, app, tr})
				}
			}
		}
	}
	cells = append(cells, in.extra...)
	results, err := parallel.Map(workers, len(cells), func(i int) (*sim.Result, error) {
		c := cells[i]
		var r *sim.Result
		_, err := rec.do(0, "sim.cell", spanName(c.s), func(int) (err error) {
			r, err = c.s.Run(c.tr, c.app)
			return err
		})
		return r, err
	})
	if err != nil {
		return nil, err
	}
	var cellSamples float64
	for _, c := range cells {
		cellSamples += float64(c.tr.Len() * len(c.app.Channels))
	}
	cellSec := rec.durations("sim.cell", "")
	m["sim.cells"] = metric{float64(len(cells)), "count"}
	m["sim.samples_per_s"] = metric{cellSamples / sum(cellSec), "1/s"}
	m["sim.cell_p50_ms"] = metric{median(cellSec) * 1e3, "ms"}
	m["sim.cell_max_ms"] = metric{maxOf(cellSec) * 1e3, "ms"}
	m["sim.calibrate_busy_s"] = metric{rec.busy("sim", "CalibratePA"), "s"}
	m["sim.pa_busy_s"] = metric{rec.busy("sim.cell", "PredefinedActivity.Run"), "s"}
	m["sim.sidewinder_busy_s"] = metric{rec.busy("sim.cell", "Sidewinder.Run"), "s"}
	m["sim.adaptive_busy_s"] = metric{rec.busy("sim.cell", "AdaptiveSidewinder.Run"), "s"}

	// sim.Match on every cell's own truth and detections.
	var swMatch float64
	for i, r := range results {
		c := cells[i]
		id, _ := rec.do(0, "sim.match", "Match", func(int) error {
			sim.Match(r.Truth, r.Detections, int(c.app.MatchTolSec*c.tr.RateHz))
			return nil
		})
		if _, ok := c.s.(sim.Sidewinder); ok {
			swMatch += rec.spanSeconds(id)
		}
	}
	m["sim.match_busy_s"] = metric{rec.busy("sim.match", "Match"), "s"}
	m["sim.match_calls"] = metric{float64(len(results)), "count"}

	// sim.FleetRun, one span per configuration; its cells' app mixes feed
	// the ir and sched replays below.
	var mixes [][]*core.Plan
	for _, cfg := range in.fleet {
		var fr *sim.FleetResult
		if _, err := rec.do(0, "sim", "FleetRun", func(int) (err error) {
			fr, err = sim.FleetRun(cfg)
			return err
		}); err != nil {
			return nil, err
		}
		for _, c := range fr.Cells {
			plans, err := plansByName(cat, c.Apps)
			if err != nil {
				return nil, err
			}
			mixes = append(mixes, plans)
		}
	}
	m["sim.fleetrun_busy_s"] = metric{rec.busy("sim", "FleetRun"), "s"}

	// apps: each main-CPU classifier over each whole trace.
	for _, md := range in.modalities {
		for _, app := range md.apps {
			for _, tr := range md.traces {
				rec.do(0, "apps", "Detect", func(int) error {
					app.Detector.Detect(tr, 0, tr.Len())
					return nil
				})
			}
		}
	}
	m["apps.detect_busy_s"] = metric{rec.busy("apps", "Detect"), "s"}

	// ir + interp: compile each Sidewinder cell's condition and push its
	// trace through a Machine in blockN chunks, profiled per stage.
	prof := telemetry.NewInterpProfile()
	var pushed, wakes float64
	var swReplay float64
	for _, c := range cells {
		if _, ok := c.s.(sim.Sidewinder); !ok {
			continue
		}
		var exec *core.Plan
		id, err := rec.do(0, "ir", "CompilePlan", func(int) error {
			plan, err := c.app.Wake.Validate(cat)
			if err == nil {
				exec, _, err = ir.CompilePlan(cat, ir.CompileOptions{}, plan)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		swReplay += rec.spanSeconds(id)
		mach, err := interp.NewPrecision(exec, interp.Float64)
		if err != nil {
			return nil, err
		}
		mach.SetProfile(prof)
		id, _ = rec.do(0, "interp", "Machine.PushBlock", func(int) error {
			for base := 0; base < c.tr.Len(); base += blockN {
				end := min(base+blockN, c.tr.Len())
				for _, ch := range exec.Channels {
					wakes += float64(len(mach.PushBlock(ch, c.tr.Channels[ch][base:end])))
					pushed += float64(end - base)
				}
			}
			return nil
		})
		swReplay += rec.spanSeconds(id)
	}
	pushSec := rec.busy("interp", "Machine.PushBlock")
	m["interp.push_block_busy_s"] = metric{pushSec, "s"}
	m["interp.samples_per_s"] = metric{pushed / pushSec, "1/s"}
	m["interp.wakes"] = metric{wakes, "count"}
	var joinInv, joinEmit, hubOps float64
	for _, st := range prof.Stages() {
		for _, k := range joinKinds {
			if st.Kind == string(k) {
				joinInv += float64(st.Invocations)
				joinEmit += float64(st.Emissions)
			}
		}
		hubOps += st.FloatOps + st.IntOps
	}
	m["interp.join.invocations"] = metric{joinInv, "count"}
	m["interp.join.emit_frac"] = metric{ratio(joinEmit, joinInv), "ratio"}
	m["interp.fft.invocations"] = metric{float64(prof.Stage(string(core.KindFFT)).Invocations), "count"}
	m["interp.hub_ops"] = metric{hubOps, "count"}
	// Derived, not measured: the Sidewinder cells' time minus the replayed
	// compile, interpreter and Match calls on the same cells.
	m["sim.sidewinder_self_s"] = metric{rec.busy("sim.cell", "Sidewinder.Run") - swReplay - swMatch, "s"}

	// ir cross-app CSE + the Merged interpreter: every modality's app set
	// compiled into one shared plan and run over its traces; every fleet
	// app mix compiled too.
	var inNodes, eliminated float64
	compileShared := func(plans []*core.Plan) (*ir.SharedPlan, error) {
		var sp *ir.SharedPlan
		_, err := rec.do(0, "ir", "CompilePlans", func(int) (err error) {
			sp, err = ir.CompilePlans(cat, ir.CompileOptions{}, plans...)
			return err
		})
		if err == nil {
			inNodes += float64(sp.Stats.InNodes)
			eliminated += float64(sp.Stats.Eliminated())
		}
		return sp, err
	}
	for _, plans := range mixes { // so far, only the fleet app mixes
		if _, err := compileShared(plans); err != nil {
			return nil, err
		}
	}
	for _, md := range in.modalities {
		plans, err := validateAll(cat, md.apps)
		if err != nil {
			return nil, err
		}
		mixes = append(mixes, plans)
		sp, err := compileShared(plans)
		if err != nil {
			return nil, err
		}
		merged, err := interp.NewShared(interp.Float64, sp)
		if err != nil {
			return nil, err
		}
		for _, tr := range md.traces {
			merged.Reset()
			rec.do(0, "interp", "Merged.PushBlock", func(int) error {
				for base := 0; base < tr.Len(); base += blockN {
					end := min(base+blockN, tr.Len())
					for _, ch := range sp.Plan.Channels {
						merged.PushBlock(ch, tr.Channels[ch][base:end])
					}
				}
				return nil
			})
		}
	}
	m["interp.merged_push_busy_s"] = metric{rec.busy("interp", "Merged.PushBlock"), "s"}
	m["ir.compile_busy_s"] = metric{rec.busy("ir", ""), "s"}
	m["ir.cse_eliminated_frac"] = metric{ratio(eliminated, inNodes), "ratio"}

	// sched: admit every app mix on every hub device, one span per Add.
	var added, admitted float64
	for _, plans := range mixes {
		for _, dev := range hub.Devices() {
			s := sched.New(dev)
			for i, p := range plans {
				if _, err := rec.do(0, "sched", "Add", func(int) error {
					_, err := s.Add(uint16(i+1), p, i)
					return err
				}); err != nil {
					return nil, err
				}
			}
			added += float64(len(plans))
			admitted += float64(len(s.HubSet()))
		}
	}
	m["sched.admit_busy_s"] = metric{rec.busy("sched", "Add"), "s"}
	m["sched.admitted_frac"] = metric{ratio(admitted, added), "ratio"}

	// dsp: FFTRealInto and ZeroCrossingRate over the workload's own
	// windows of windowN samples.
	var windows [][]float64
	for _, md := range in.modalities {
		for _, tr := range md.traces {
			x := tr.Channels[tr.ChannelList()[0]]
			for base := 0; base+windowN <= len(x) && len(windows) < 4096; base += windowN {
				windows = append(windows, x[base:base+windowN])
			}
		}
	}
	spec := make([]complex128, windowN)
	m["dsp.fft_ns"] = metric{perCallNS(rec, "dsp", "FFTRealInto", len(windows), func() {
		for _, w := range windows {
			spec, _ = dsp.FFTRealInto(spec, w)
		}
	}), "ns"}
	m["dsp.zcr_ns"] = metric{perCallNS(rec, "dsp", "ZeroCrossingRate", len(windows), func() {
		for _, w := range windows {
			dsp.ZeroCrossingRate(w)
		}
	}), "ns"}
	return m, nil
}

// spanName names a cell span after its strategy type.
func spanName(s sim.Strategy) string {
	switch s.(type) {
	case sim.PredefinedActivity:
		return "PredefinedActivity.Run"
	case sim.Sidewinder:
		return "Sidewinder.Run"
	case sim.AdaptiveSidewinder:
		return "AdaptiveSidewinder.Run"
	}
	return "Strategy.Run"
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perCallNS times fn (which makes calls calls) under one span, repeating
// it within the span, twice as often each time, until one span lasts at
// least minReplay; it returns that span's nanoseconds per call.
func perCallNS(rec *recorder, layer, name string, calls int, fn func()) float64 {
	const minReplay = 100 * time.Millisecond
	if calls == 0 {
		return 0
	}
	for reps := 1; ; reps *= 2 {
		id, _ := rec.do(0, layer, name, func(int) error {
			for i := 0; i < reps; i++ {
				fn()
			}
			return nil
		})
		if d := rec.spanSeconds(id); d >= minReplay.Seconds() {
			return d * 1e9 / float64(reps*calls)
		}
	}
}

func validateAll(cat *core.Catalog, list []*apps.App) ([]*core.Plan, error) {
	plans := make([]*core.Plan, 0, len(list))
	for _, app := range list {
		p, err := app.Wake.Validate(cat)
		if err != nil {
			return nil, fmt.Errorf("validating %s: %w", app.Name, err)
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// plansByName validates the named catalog applications' conditions.
func plansByName(cat *core.Catalog, names []string) ([]*core.Plan, error) {
	byName := map[string]*apps.App{}
	for _, app := range apps.All() {
		byName[app.Name] = app
	}
	list := make([]*apps.App, 0, len(names))
	for _, n := range names {
		app, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown app %q in a fleet cell", n)
		}
		list = append(list, app)
	}
	return validateAll(cat, list)
}

// replayIngestLayers measures the fleetd, link and telemetry layers: the
// daemon's own counters and histograms from g's latest pass, then the
// public codec, registry, checkpoint and ledger calls replayed over the
// frames of g's distinct population.
func replayIngestLayers(rec *recorder, g *ingestWorkload, m map[string]metric) error {
	reg := g.lastReg
	m["fleetd.queue_delay_p50_ms"] = metric{reg.Histogram("fleetd.queue_delay_ms", nil).Quantile(0.5), "ms"}
	m["fleetd.queue_delay_p99_ms"] = metric{reg.Histogram("fleetd.queue_delay_ms", nil).Quantile(0.99), "ms"}
	m["fleetd.flush_batch_p50"] = metric{reg.Histogram("fleetd.flush_batch", nil).Quantile(0.5), "count"}
	m["fleetd.applied_per_s"] = metric{float64(g.lastDrain.Applied) / g.lastLoad.DurationSec, "1/s"}
	m["fleetd.checkpoints"] = metric{float64(reg.Counter("fleetd.checkpoints").Value()), "count"}
	m["fleetd.sheds"] = metric{float64(reg.Counter("fleetd.sheds").Value()), "count"}
	m["fleetd.dedup_acks"] = metric{float64(reg.Counter("fleetd.dedup_acks").Value()), "count"}
	m["fleetload.reconnects"] = metric{float64(g.lastLoad.Reconnects), "count"}
	m["fleetd.drain_ms"] = metric{g.drainSec * 1e3, "ms"}

	// Checkpoint: snapshot the drained daemon and write it, as the
	// periodic checkpointer does.
	dir, err := os.MkdirTemp(g.out, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var ckpt []float64
	for i := 0; i < 5; i++ {
		id, err := rec.do(0, "fleetd", "Checkpoint", func(int) error {
			return fleetd.WriteCheckpoint(filepath.Join(dir, "fleet.ckpt"), g.lastSrv.Snapshot())
		})
		if err != nil {
			return err
		}
		ckpt = append(ckpt, rec.spanSeconds(id))
	}
	m["fleetd.checkpoint_ms"] = metric{median(ckpt) * 1e3, "ms"}

	// The frames of every distinct device, as its session sends them.
	type frame struct {
		dev  uint64
		f    link.Frame
		wire []byte
	}
	var frames []frame
	var wireBytes float64
	for i := range g.base {
		c := &g.base[i]
		seq := uint32(0)
		add := func(t link.MsgType, payload []byte) error {
			f := link.Frame{Type: t, Payload: payload}
			wire, err := link.Encode(f)
			frames = append(frames, frame{uint64(i + 1), f, wire})
			wireBytes += float64(len(wire))
			return err
		}
		for w := 0; w < c.Wakes; w++ {
			if w%ingestHeartbeatEvery == 0 {
				seq++
				if err := add(fleetd.MsgDeviceHeartbeat, fleetd.Heartbeat{Seq: seq, Epoch: 1}.Encode()); err != nil {
					return err
				}
			}
			seq++
			if err := add(fleetd.MsgDeviceWake, fleetd.WakeEvent{Seq: seq, Node: uint16(w), Value: c.AvgMW}.Encode()); err != nil {
				return err
			}
		}
		for _, comp := range telemetry.Components() {
			seq++
			if err := add(fleetd.MsgDeviceEnergy, fleetd.EnergyEvent{Seq: seq, Component: comp, MJ: c.TotalMJ}.Encode()); err != nil {
				return err
			}
		}
	}
	m["link.bytes_per_frame"] = metric{wireBytes / float64(len(frames)), "B"}
	m["link.encode_ns"] = metric{perCallNS(rec, "link", "Encode", len(frames), func() {
		for _, f := range frames {
			link.Encode(f.f)
		}
	}), "ns"}
	stream := make([]byte, 0, int(wireBytes))
	for _, f := range frames {
		stream = append(stream, f.wire...)
	}
	var feedErr error
	m["link.decode_ns"] = metric{perCallNS(rec, "link", "Decoder.Feed", len(frames), func() {
		var dec link.Decoder
		for base := 0; base < len(stream); base += 8 << 10 {
			if _, err := dec.Feed(stream[base:min(base+8<<10, len(stream))]); err != nil {
				feedErr = err
			}
		}
	}), "ns"}
	if feedErr != nil {
		return fmt.Errorf("replaying the link decoder: %w", feedErr)
	}
	m["fleetd.decode_ns"] = metric{perCallNS(rec, "fleetd", "Decode", len(frames), func() {
		for _, fr := range frames {
			f := fr.f
			switch f.Type {
			case fleetd.MsgDeviceWake:
				fleetd.DecodeWakeEvent(f.Payload)
			case fleetd.MsgDeviceEnergy:
				fleetd.DecodeEnergyEvent(f.Payload)
			case fleetd.MsgDeviceHeartbeat:
				fleetd.DecodeHeartbeat(f.Payload)
			}
		}
	}), "ns"}
	// The registry calls every frame makes on the session path: the dedup
	// check, the watermark update, and the heartbeat record.
	m["fleetd.registry_ns"] = metric{perCallNS(rec, "fleetd", "Registry", len(frames), func() {
		r := fleetd.NewRegistry(16)
		for i, f := range frames {
			if i == 0 || frames[i-1].dev != f.dev {
				r.Connect(f.dev)
			}
			seq := uint32(i + 1)
			if !r.AlreadyAcked(f.dev, seq) {
				r.MarkAcked(f.dev, seq)
			}
			if f.f.Type == fleetd.MsgDeviceHeartbeat {
				r.RecordHeartbeat(f.dev, fleetd.Heartbeat{Seq: seq, Epoch: 1})
			}
		}
	}), "ns"}
	comps := telemetry.Components()
	m["telemetry.ledger_add_ns"] = metric{perCallNS(rec, "telemetry", "Ledger.AddEnergyMJ", len(g.base)*len(comps), func() {
		l := telemetry.NewLedger()
		for i := range g.base {
			for _, comp := range comps {
				l.AddEnergyMJ(comp, g.base[i].TotalMJ)
			}
		}
	}), "ns"}
	return nil
}

// tracegenCalls lists the synthesis calls of eval.GenerateWorkload for o.
func tracegenCalls(o eval.Options) []func() (*sensor.Trace, error) {
	var calls []func() (*sensor.Trace, error)
	robot, _ := tracegen.PaperRobotRunSpecs(o.Seed, o.RobotRunDuration)
	for _, cfg := range robot {
		calls = append(calls, func() (*sensor.Trace, error) { return tracegen.Robot(cfg) })
	}
	for i, env := range tracegen.AudioEnvironments() {
		cfg := tracegen.NewAudioConfig(o.Seed+int64(i)*101, o.AudioDuration, env)
		calls = append(calls, func() (*sensor.Trace, error) { return tracegen.Audio(cfg) })
	}
	for i, prof := range tracegen.HumanProfiles() {
		cfg := tracegen.HumanConfig{Seed: o.Seed + int64(i)*211, Duration: o.HumanDuration, Profile: prof}
		calls = append(calls, func() (*sensor.Trace, error) { return tracegen.Human(cfg) })
	}
	return calls
}
