package sim

import (
	"fmt"
	"math"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

// Configuration constants shared by the strategies (paper §4.2).
const (
	// dutyAwakeSec is the duty-cycling data-collection window: "wake-up
	// at fixed time intervals to collect sensor data for 4 seconds".
	dutyAwakeSec = 4.0
	// paHoldSec keeps a predefined-activity wake-up alive while
	// significant activity recurs within this horizon.
	paHoldSec = 2.0
	// swIdleHoldSec puts the phone back to sleep after this long without
	// the Sidewinder condition firing.
	swIdleHoldSec = 1.5
	// simBlock is the chunk size the simulator feeds the interpreter's
	// block fast path with; the phone state machine replays each chunk
	// per sample over the fired bitmap, so the choice only affects speed.
	simBlock = 1024
)

// ---------------------------------------------------------------- helpers

// hubFeed is a hub machine bound to the trace channels it consumes.
type hubFeed struct {
	m     *interp.Machine
	names []core.SensorChannel
	chans [][]float64
}

// newHubFeed binds m to the trace's samples for chs; who names the
// condition set in the missing-channel error.
func newHubFeed(m *interp.Machine, tr *sensor.Trace, chs []core.SensorChannel, who string) (hubFeed, error) {
	h := hubFeed{m: m, names: chs, chans: make([][]float64, len(chs))}
	for i, ch := range chs {
		samples, ok := tr.Channels[ch]
		if !ok {
			return hubFeed{}, fmt.Errorf("sim: trace %q lacks channel %s required by %s", tr.Name, ch, who)
		}
		h.chans[i] = samples
	}
	return h, nil
}

// fire pushes samples [base, end) of every channel through the machine on
// the block path and returns buf[:end-base] with each sample that
// triggered a wake marked. Replaying the bitmap sample by sample is
// byte-identical to a per-sample interpreter loop. A channel shorter than
// end contributes the samples it has.
func (h hubFeed) fire(base, end int, buf []bool) []bool {
	f := buf[:end-base]
	clear(f)
	for i, ch := range h.names {
		if e := min(end, len(h.chans[i])); e > base {
			for _, w := range h.m.PushBlock(ch, h.chans[i][base:e]) {
				f[w.Off] = true
			}
		}
	}
	return f
}

// clock tracks simulated time against the phone state machine it owns
// (held by value, so a run's phone stays off the heap; strategies read it
// through &c.ph). When a telemetry clock is attached, simulated time is
// mirrored into it so trace streams stamp events at the right position on
// the timeline.
type clock struct {
	ph   power.Phone
	t    float64 // seconds since trace start
	rate float64
	n    int // trace length in samples
	tclk *telemetry.Clock
}

// newClock starts a sleeping Nexus 4 at the head of the trace.
func newClock(tr *sensor.Trace) clock {
	return clock{ph: *power.NewPhone(power.Nexus4()), rate: tr.RateHz, n: tr.Len()}
}

func (c *clock) advance(dt float64) {
	c.ph.Advance(dt)
	c.t += dt
	c.tclk.SetSec(c.t)
}

// sampleAt converts a time to a clamped sample index.
func (c *clock) sampleAt(t float64) int {
	i := int(t * c.rate)
	if i < 0 {
		i = 0
	}
	if i > c.n {
		i = c.n
	}
	return i
}

func (c *clock) endSec() float64 { return float64(c.n) / c.rate }

// wakeFor asks the phone to wake — it starts to only from asleep or
// falling asleep, which it reports — then lets sec pass (none if sec <= 0).
// wakeFor and sleepFor are the simulator's only phone transitions.
func (c *clock) wakeFor(sec float64) bool {
	woke := c.ph.RequestWake()
	if sec > 0 {
		c.advance(sec)
	}
	return woke
}

// sleepFor asks the phone to sleep — only a fully awake phone starts to —
// then lets sec pass (none if sec <= 0).
func (c *clock) sleepFor(sec float64) {
	c.ph.RequestSleep()
	if sec > 0 {
		c.advance(sec)
	}
}

// trace mirrors simulated time into a fresh telemetry clock and opens the
// run's phone and hub streams (names prefixed by label), recording every
// phone power-state change on the first. It returns the hub stream; with
// telemetry disabled it installs nothing and returns nil.
func (c *clock) trace(tel telemetry.Set, label string) *telemetry.Stream {
	if !tel.Enabled() {
		return nil
	}
	c.tclk = &telemetry.Clock{}
	phone := tel.Tracer.Stream(label+"phone", c.tclk)
	hub := tel.Tracer.Stream(label+"hub", c.tclk)
	tracePhoneTransitions(&c.ph, phone)
	return hub
}

// wakeTimeline is the phone side of every hub-driven strategy (paper
// §4.2): a wake turns the phone on, and once hold samples pass without
// another wake it goes back to sleep. Each wake-up opens a delivered
// interval reaching preBuffer samples back (the hub's raw-data buffer);
// going back to sleep closes it.
type wakeTimeline struct {
	clock
	dt              float64
	hold, preBuffer int
	last            int // sample of the latest wake, -1 before any
	open            int // start of the open interval, -1 while asleep
	intervals       []Interval
}

// newWakeTimeline starts a sleeping phone at the head of the trace.
func newWakeTimeline(tr *sensor.Trace, holdSec, preBufferSec float64) wakeTimeline {
	return wakeTimeline{
		clock:     newClock(tr),
		dt:        1 / tr.RateHz,
		hold:      int(holdSec * tr.RateHz),
		preBuffer: int(preBufferSec * tr.RateHz),
		last:      -1,
		open:      -1,
	}
}

// wake records a wake at sample i and reports whether it woke the phone;
// a wake while the phone is up or already waking only restarts the hold.
func (w *wakeTimeline) wake(i int) bool {
	w.last = i
	if !w.wakeFor(0) {
		return false
	}
	w.open = max(i-w.preBuffer, 0)
	return true
}

// idle ends sample i: an awake phone whose last wake is more than hold
// samples old goes back to sleep, closing the open interval, and the
// clock advances one sample.
func (w *wakeTimeline) idle(i int) {
	if w.ph.State() == power.Awake && w.last >= 0 && i-w.last > w.hold {
		w.sleepFor(0)
		w.intervals = append(w.intervals, Interval{w.open, i})
		w.open = -1
	}
	w.advance(w.dt)
}

// done closes an interval still open at trace end n and returns every
// delivered interval.
func (w *wakeTimeline) done(n int) []Interval {
	if w.open >= 0 {
		w.intervals = append(w.intervals, Interval{w.open, n})
	}
	return w.intervals
}

// placeWake validates the app's wake-up condition against cat (default
// core.DefaultCatalog()) and places it on the cheapest feasible device of
// devices (default hub.Devices()). It returns the catalog it used.
func placeWake(cat *core.Catalog, devices []hub.Device, app *apps.App) (*core.Catalog, *core.Plan, hub.Device, error) {
	if cat == nil {
		cat = core.DefaultCatalog()
	}
	if devices == nil {
		devices = hub.Devices()
	}
	plan, err := app.Wake.Validate(cat)
	if err != nil {
		return nil, nil, hub.Device{}, fmt.Errorf("sim: validating %s wake condition: %w", app.Name, err)
	}
	dev, err := hub.SelectDevice(devices, plan)
	if err != nil {
		return nil, nil, hub.Device{}, fmt.Errorf("sim: placing %s wake condition: %w", app.Name, err)
	}
	return cat, plan, dev, nil
}

// --------------------------------------------------------- Always Awake

// AlwaysAwake keeps the main processor awake for the entire trace: the
// upper power bound and the recall/precision reference (paper §5.1).
type AlwaysAwake struct{}

// Name implements Strategy.
func (AlwaysAwake) Name() string { return "always-awake" }

// Run implements Strategy.
func (AlwaysAwake) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	ph := power.NewPhoneAwake(power.Nexus4())
	ph.Advance(float64(tr.Len()) / tr.RateHz)
	return finish("always-awake", tr, app, ph, 0, []Interval{{0, tr.Len()}}, nil), nil
}

// ----------------------------------------------------------------- Oracle

// Oracle is the hypothetical ideal (paper §4.2): it is asleep except
// exactly when events of interest occur, waking early enough to be usable
// at each event's start. Its detections are the ground truth itself.
type Oracle struct{}

// Name implements Strategy.
func (Oracle) Name() string { return "oracle" }

// Run implements Strategy.
func (Oracle) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	profile := power.Nexus4()
	c := newClock(tr)

	truth := tr.EventsLabeled(app.Label)
	gap := int(app.OracleMergeGapSec * tr.RateHz)
	spans := mergeTruthSpans(truth, gap)

	// Asleep until a transition before each span starts, awake through
	// its end; requesting sleep of a phone that is not yet awake is a
	// no-op.
	for _, sp := range spans {
		c.sleepFor(float64(sp.Start)/tr.RateHz - profile.TransitionSeconds - c.t)
		c.wakeFor(float64(sp.End)/tr.RateHz - c.t)
	}
	c.sleepFor(c.endSec() - c.t)

	res := finish("oracle", tr, app, &c.ph, 0, nil, nil)
	// The oracle detects by definition: perfect recall and precision.
	res.Detections = truth
	res.Truth = truth
	res.Recall, res.Precision = 1, 1
	res.TP, res.FP = len(truth), 0
	return res, nil
}

// mergeTruthSpans coalesces ground-truth events separated by fewer than
// gap samples into single awake spans (steps in one walking bout wake the
// oracle once, not per step).
func mergeTruthSpans(truth []sensor.Event, gap int) []Interval {
	var out []Interval
	for _, e := range truth {
		if n := len(out); n > 0 && e.Start-out[n-1].End <= gap {
			if e.End > out[n-1].End {
				out[n-1].End = e.End
			}
			continue
		}
		out = append(out, Interval{e.Start, e.End})
	}
	return out
}

// ----------------------------------------------------------- Duty Cycling

// DutyCycling wakes at fixed intervals, collects data for 4 seconds, and
// stays awake in 4-second extensions while the application keeps detecting
// events; otherwise it sleeps for SleepSec (paper §4.2).
type DutyCycling struct {
	SleepSec float64
}

// Name implements Strategy.
func (d DutyCycling) Name() string { return fmt.Sprintf("duty-cycle-%.0fs", d.SleepSec) }

// Run implements Strategy.
func (d DutyCycling) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	if d.SleepSec <= 0 {
		return nil, fmt.Errorf("sim: duty cycling needs a positive sleep interval")
	}
	c := newClock(tr)
	end := c.endSec()
	var intervals []Interval
	var deliveries []Delivery

	for c.t < end {
		c.wakeFor(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
		// Awake chunks of 4 s; extend while the app detects something.
		for c.t < end {
			chunkStart := c.t
			c.advance(math.Min(dutyAwakeSec, end-c.t))
			iv := Interval{c.sampleAt(chunkStart), c.sampleAt(c.t)}
			intervals = append(intervals, iv)
			deliveries = append(deliveries, Delivery{Start: iv.Start, End: iv.End, At: iv.End})
			if len(app.Detector.Detect(tr, iv.Start, iv.End)) == 0 {
				break
			}
		}
		if c.t >= end {
			break
		}
		c.sleepFor(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
		c.advance(math.Min(d.SleepSec, end-c.t))
	}
	res := finish(d.Name(), tr, app, &c.ph, 0, intervals, nil)
	res.Deliveries = deliveries
	return res, nil
}

// --------------------------------------------------------------- Batching

// Batching follows the duty-cycling schedule, but sensor data is cached in
// hub memory while the phone sleeps and the whole batch is delivered on
// wake-up: recall is perfect at the cost of detection latency (paper §4.2,
// §5.4). The power model includes the MSP430 doing the caching (§4.3).
type Batching struct {
	SleepSec float64
}

// Name implements Strategy.
func (b Batching) Name() string { return fmt.Sprintf("batching-%.0fs", b.SleepSec) }

// Run implements Strategy.
func (b Batching) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	if b.SleepSec <= 0 {
		return nil, fmt.Errorf("sim: batching needs a positive sleep interval")
	}
	c := newClock(tr)
	end := c.endSec()
	var intervals []Interval
	var deliveries []Delivery
	delivered := 0

	for c.t < end {
		c.wakeFor(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
		for c.t < end {
			c.advance(math.Min(dutyAwakeSec, end-c.t))
			iv := Interval{delivered, c.sampleAt(c.t)}
			delivered = iv.End
			intervals = append(intervals, iv)
			deliveries = append(deliveries, Delivery{Start: iv.Start, End: iv.End, At: iv.End})
			if len(app.Detector.Detect(tr, iv.Start, iv.End)) == 0 {
				break
			}
		}
		if c.t >= end {
			break
		}
		c.sleepFor(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
		c.advance(math.Min(b.SleepSec, end-c.t))
	}
	// Whatever remains in the cache is delivered at trace end.
	if delivered < tr.Len() {
		intervals = append(intervals, Interval{delivered, tr.Len()})
		deliveries = append(deliveries, Delivery{Start: delivered, End: tr.Len(), At: tr.Len()})
	}
	res := finish(b.Name(), tr, app, &c.ph, hub.MSP430().ActivePowerMW, intervals, nil)
	res.Deliveries = deliveries
	return res, nil
}

// ---------------------------------------------------- Predefined Activity

// PAKind selects which hardwired detector a PredefinedActivity hub runs.
type PAKind int

const (
	// SignificantMotion models Android's significant-motion detector: a
	// short-window standard deviation of the acceleration magnitude.
	SignificantMotion PAKind = iota
	// SignificantSound wakes on short-window audio variance (intensity).
	SignificantSound
)

// PredefinedActivity models the manufacturer-hardwired detector
// configuration (paper §4.2): the hub wakes the phone on significant
// motion or sound, regardless of what the application actually wants. The
// threshold is calibrated per §5.3 to the lowest power that retains 100%
// recall. The MSP430 runs the detector and buffers recent raw data.
type PredefinedActivity struct {
	Kind      PAKind
	Threshold float64
}

// PAKindFor returns the detector kind matching an application's sensors.
func PAKindFor(app *apps.App) PAKind {
	for _, ch := range app.Channels {
		if ch == core.Mic {
			return SignificantSound
		}
	}
	return SignificantMotion
}

// Name implements Strategy.
func (p PredefinedActivity) Name() string { return "predefined-activity" }

// Run implements Strategy.
func (p PredefinedActivity) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	sig, err := newSignificance(p.Kind, tr)
	if err != nil {
		return nil, err
	}
	tl := newWakeTimeline(tr, paHoldSec, app.PreBufferSec)
	n := tr.Len()
	for i := 0; i < n; i++ {
		if sig.significant(i, p.Threshold) {
			tl.wake(i)
		}
		tl.idle(i)
	}
	return finish(p.Name(), tr, app, &tl.ph, hub.MSP430().ActivePowerMW, tl.done(n), nil), nil
}

// significance computes the streaming significant-motion/sound feature
// with O(1) work per sample.
type significance struct {
	values []float64 // magnitude (motion) or raw audio
	win    int
	sum    float64
	sumSq  float64
}

func newSignificance(kind PAKind, tr *sensor.Trace) (*significance, error) {
	switch kind {
	case SignificantMotion:
		x, okx := tr.Channels[core.AccelX]
		y, oky := tr.Channels[core.AccelY]
		z, okz := tr.Channels[core.AccelZ]
		if !okx || !oky || !okz {
			return nil, fmt.Errorf("sim: significant motion needs all three accelerometer axes")
		}
		mags := make([]float64, len(x))
		for i := range mags {
			mags[i] = math.Sqrt(x[i]*x[i] + y[i]*y[i] + z[i]*z[i])
		}
		return &significance{values: mags, win: int(0.5 * tr.RateHz)}, nil
	case SignificantSound:
		mic, ok := tr.Channels[core.Mic]
		if !ok {
			return nil, fmt.Errorf("sim: significant sound needs the microphone channel")
		}
		return &significance{values: mic, win: 1024}, nil
	}
	return nil, fmt.Errorf("sim: unknown predefined activity kind %d", kind)
}

// significant reports whether the window ending at sample i has standard
// deviation (motion) / variance (sound) at or above the threshold.
func (s *significance) significant(i int, threshold float64) bool {
	v := s.values[i]
	s.sum += v
	s.sumSq += v * v
	if i >= s.win {
		old := s.values[i-s.win]
		s.sum -= old
		s.sumSq -= old * old
	}
	n := float64(min(i+1, s.win))
	if int(n) < s.win {
		return false
	}
	mean := s.sum / n
	variance := s.sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	if s.win == 1024 { // sound: variance is the intensity feature
		return variance >= threshold
	}
	return math.Sqrt(variance) >= threshold
}

// -------------------------------------------------------------- Sidewinder

// Sidewinder runs the application's wake-up condition on the sensor hub:
// the pipeline is validated against the platform catalog, placed on the
// cheapest feasible device, and interpreted over every sample while the
// phone sleeps. A value reaching OUT wakes the phone, which receives the
// hub's buffered raw data (paper §2-3).
type Sidewinder struct {
	// Catalog defaults to core.DefaultCatalog().
	Catalog *core.Catalog
	// Devices defaults to hub.Devices().
	Devices []hub.Device
	// Precision selects the interpreter's numeric substrate (default
	// float64; Q15 models the FPU-less MCU hub on fixed-point arithmetic).
	Precision interp.Precision

	// Telemetry, when enabled, attributes the run's energy to the ledger,
	// profiles the hub interpreter per stage, and traces wake events and
	// phone state transitions. The zero Set changes nothing.
	Telemetry telemetry.Set
	// TraceLabel prefixes the run's trace stream names so parallel
	// evaluation cells stay distinguishable in one trace.
	TraceLabel string
}

// Name implements Strategy.
func (Sidewinder) Name() string { return "sidewinder" }

// Run implements Strategy.
func (s Sidewinder) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	cat, plan, dev, err := placeWake(s.Catalog, s.Devices, app)
	if err != nil {
		return nil, err
	}
	// The hub executes the DAG-compiled form of the condition: intra-app
	// duplicate subgraphs (e.g. two branches windowing the microphone the
	// same way) run once. Placement above is sized on the unoptimized
	// plan — the conservative bound a hub must satisfy even with the
	// optimizer ablated. The compiled plan produces bit-identical wakes
	// (TestDAGLinearEquivalence).
	exec, _, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
	if err != nil {
		return nil, fmt.Errorf("sim: compiling %s wake condition: %w", app.Name, err)
	}
	m, err := interp.NewPrecision(exec, s.Precision)
	if err != nil {
		return nil, err
	}

	tl := newWakeTimeline(tr, swIdleHoldSec, app.PreBufferSec)
	ph := &tl.ph
	hubStream := tl.trace(s.Telemetry, s.TraceLabel)
	var profile *telemetry.InterpProfile
	if s.Telemetry.Enabled() {
		profile = telemetry.NewInterpProfile()
		m.SetProfile(profile)
	}

	feed, err := newHubFeed(m, tr, exec.Channels, app.Name)
	if err != nil {
		return nil, err
	}

	// The hub interpreter runs on the block path (hubFeed.fire); the phone
	// state machine then replays each chunk sample by sample.
	n := tr.Len()
	fired := make([]bool, simBlock)
	for base := 0; base < n; base += simBlock {
		f := feed.fire(base, min(base+simBlock, n), fired)
		for k := range f {
			i := base + k
			if f[k] {
				hubStream.Instant1("wake.sent", "hub", "sample", float64(i))
				tl.wake(i)
			}
			tl.idle(i)
		}
	}
	intervals := tl.done(n)

	if s.Telemetry.Enabled() {
		led := s.Telemetry.LedgerSink()
		depositPhoneEnergy(led, ph)
		depositHubEnergy(led, hubStream, dev, dev.ActivePowerMW*ph.TotalSeconds(), profile)
	}

	res := finish(s.Name(), tr, app, ph, dev.ActivePowerMW, intervals, nil)
	res.Device = dev.Name
	res.HubUtilization = dev.Utilization(plan)
	return res, nil
}
