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

// clock tracks simulated time against a phone state machine. When a
// telemetry clock is attached, simulated time is mirrored into it so
// trace streams stamp events at the right position on the timeline.
type clock struct {
	ph   *power.Phone
	t    float64 // seconds since trace start
	rate float64
	n    int // trace length in samples
	tclk *telemetry.Clock
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
	ph := power.NewPhone(profile)
	c := &clock{ph: ph, rate: tr.RateHz, n: tr.Len()}

	truth := tr.EventsLabeled(app.Label)
	gap := int(app.OracleMergeGapSec * tr.RateHz)
	spans := mergeTruthSpans(truth, gap)

	for _, sp := range spans {
		start := float64(sp.Start)/tr.RateHz - profile.TransitionSeconds
		if start < c.t {
			start = c.t
		}
		end := float64(sp.End) / tr.RateHz
		if start > c.t {
			c.advance(start - c.t)
		}
		ph.RequestWake()
		if end > c.t {
			c.advance(end - c.t)
		}
		ph.RequestSleep()
	}
	if rest := c.endSec() - c.t; rest > 0 {
		c.advance(rest)
	}

	res := finish("oracle", tr, app, ph, 0, nil, nil)
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
	ph := power.NewPhone(power.Nexus4())
	c := &clock{ph: ph, rate: tr.RateHz, n: tr.Len()}
	end := c.endSec()
	var intervals []Interval
	var deliveries []Delivery

	for c.t < end {
		ph.RequestWake()
		c.advance(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
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
		ph.RequestSleep()
		c.advance(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
		c.advance(math.Min(d.SleepSec, end-c.t))
	}
	res := finish(d.Name(), tr, app, ph, 0, intervals, nil)
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
	ph := power.NewPhone(power.Nexus4())
	c := &clock{ph: ph, rate: tr.RateHz, n: tr.Len()}
	end := c.endSec()
	var intervals []Interval
	var deliveries []Delivery
	delivered := 0

	for c.t < end {
		ph.RequestWake()
		c.advance(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
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
		ph.RequestSleep()
		c.advance(math.Min(power.Nexus4().TransitionSeconds, end-c.t))
		c.advance(math.Min(b.SleepSec, end-c.t))
	}
	// Whatever remains in the cache is delivered at trace end.
	if delivered < tr.Len() {
		intervals = append(intervals, Interval{delivered, tr.Len()})
		deliveries = append(deliveries, Delivery{Start: delivered, End: tr.Len(), At: tr.Len()})
	}
	res := finish(b.Name(), tr, app, ph, hub.MSP430().ActivePowerMW, intervals, nil)
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
	ph := power.NewPhone(power.Nexus4())
	c := &clock{ph: ph, rate: tr.RateHz, n: tr.Len()}
	dt := 1 / tr.RateHz
	preBuffer := int(app.PreBufferSec * tr.RateHz)
	hold := int(paHoldSec * tr.RateHz)

	var intervals []Interval
	openStart := -1
	lastSig := -1

	for i := 0; i < tr.Len(); i++ {
		if sig.significant(i, p.Threshold) {
			lastSig = i
			if ph.State() == power.Asleep || ph.State() == power.FallingAsleep {
				ph.RequestWake()
				openStart = i - preBuffer
				if openStart < 0 {
					openStart = 0
				}
			}
		}
		if ph.State() == power.Awake && lastSig >= 0 && i-lastSig > hold {
			ph.RequestSleep()
			intervals = append(intervals, Interval{openStart, i})
			openStart = -1
		}
		c.advance(dt)
	}
	if openStart >= 0 {
		intervals = append(intervals, Interval{openStart, tr.Len()})
	}
	return finish(p.Name(), tr, app, ph, hub.MSP430().ActivePowerMW, intervals, nil), nil
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
	cat := s.Catalog
	if cat == nil {
		cat = core.DefaultCatalog()
	}
	devices := s.Devices
	if devices == nil {
		devices = hub.Devices()
	}
	plan, err := app.Wake.Validate(cat)
	if err != nil {
		return nil, fmt.Errorf("sim: validating %s wake condition: %w", app.Name, err)
	}
	dev, err := hub.SelectDevice(devices, plan)
	if err != nil {
		return nil, fmt.Errorf("sim: placing %s wake condition: %w", app.Name, err)
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

	ph := power.NewPhone(power.Nexus4())
	c := &clock{ph: ph, rate: tr.RateHz, n: tr.Len()}
	dt := 1 / tr.RateHz
	preBuffer := int(app.PreBufferSec * tr.RateHz)
	hold := int(swIdleHoldSec * tr.RateHz)

	var phoneStream, hubStream *telemetry.Stream
	var profile *telemetry.InterpProfile
	if s.Telemetry.Enabled() {
		c.tclk = &telemetry.Clock{}
		phoneStream = s.Telemetry.Tracer.Stream(s.TraceLabel+"phone", c.tclk)
		hubStream = s.Telemetry.Tracer.Stream(s.TraceLabel+"hub", c.tclk)
		tracePhoneTransitions(ph, phoneStream)
		profile = telemetry.NewInterpProfile()
		m.SetProfile(profile)
	}

	feed, err := newHubFeed(m, tr, exec.Channels, app.Name)
	if err != nil {
		return nil, err
	}

	var intervals []Interval
	openStart := -1
	lastFire := -1

	// The hub interpreter runs on the block path (hubFeed.fire); the phone
	// state machine then replays each chunk sample by sample.
	fired := make([]bool, simBlock)
	for base := 0; base < tr.Len(); base += simBlock {
		f := feed.fire(base, min(base+simBlock, tr.Len()), fired)
		for k := range f {
			i := base + k
			if f[k] {
				lastFire = i
				hubStream.Instant1("wake.sent", "hub", "sample", float64(i))
				if ph.State() == power.Asleep || ph.State() == power.FallingAsleep {
					ph.RequestWake()
					openStart = i - preBuffer
					if openStart < 0 {
						openStart = 0
					}
				}
			}
			if ph.State() == power.Awake && lastFire >= 0 && i-lastFire > hold {
				ph.RequestSleep()
				intervals = append(intervals, Interval{openStart, i})
				openStart = -1
			}
			c.advance(dt)
		}
	}
	if openStart >= 0 {
		intervals = append(intervals, Interval{openStart, tr.Len()})
	}

	if s.Telemetry.Enabled() {
		led := s.Telemetry.LedgerSink()
		depositPhoneEnergy(led, ph)
		depositHubEnergy(led, dev, ph.TotalSeconds(), profile)
		emitStageSpans(hubStream, profile, dev)
	}

	res := finish(s.Name(), tr, app, ph, dev.ActivePowerMW, intervals, nil)
	res.Device = dev.Name
	res.HubUtilization = dev.Utilization(plan)
	return res, nil
}
