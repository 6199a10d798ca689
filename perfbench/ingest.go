package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/fleetd"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// Ingest load shape: a closed loop of GOMAXPROCS concurrent device
// sessions, each holding at most ingestWindow unacked frames (fleetload's
// default window), against an in-process daemon on loopback that
// checkpoints every ingestCheckpointEvery.
const (
	ingestWindow          = 64
	ingestHeartbeatEvery  = 25 // fleetload's default
	ingestCheckpointEvery = 500 * time.Millisecond
	ingestAppsPerDevice   = 2
)

// ingestSize sizes the ingest population at scale 1: BuildPopulation's
// distinct devices and trace length, and the frames one pass replays.
// The distinct population is replicated into enough device IDs to reach
// passFrames, which keeps set-up small. It is large enough that its mean
// frames per device, which sets how many sessions a pass opens, barely
// moves from seed to seed.
type ingestSize struct {
	devices    int
	traceDur   time.Duration
	passFrames int
}

var ingestFull = ingestSize{devices: 320, traceDur: 90 * time.Second, passFrames: 300_000}

// ingestWorkload replays a fleet population over loopback TCP into a
// fresh fleetd.Server per pass.
type ingestWorkload struct {
	seed  int64
	size  ingestSize
	out   string
	cells []sim.FleetCell // the replicated population; device i+1 = cells[i]
	base  []sim.FleetCell // BuildPopulation's distinct cells
	conc  int
	// client is the load generator's registry, shared by every pass so
	// the ack-latency histogram pools all of a run's requests.
	client *telemetry.Registry

	// lastReg keeps the server registry of the latest pass, so the traced
	// run can read the daemon's own queue and flush histograms.
	lastReg   *telemetry.Registry
	lastDrain fleetd.DrainReport
	lastSrv   *fleetd.Server
	lastLoad  *fleetd.LoadReport
	drainSec  float64
}

func newIngestWorkload(o options) *ingestWorkload {
	sz := ingestFull
	sz.devices = max(4, int(float64(sz.devices)*math.Sqrt(o.scale)))
	sz.traceDur = max(10*time.Second, time.Duration(float64(sz.traceDur)*math.Sqrt(o.scale)).Round(time.Second))
	sz.passFrames = max(2000, int(float64(sz.passFrames)*o.scale))
	client := telemetry.NewRegistry()
	client.Histogram("fleetload.ack_latency_ms", latencyBounds())
	return &ingestWorkload{seed: o.seed, size: sz, out: o.out, conc: runtime.GOMAXPROCS(0), client: client}
}

// latencyBounds are 5%-wide log-spaced buckets from 10 µs to 10 s. The
// load generator observes into the histogram registered under its name,
// so these replace its default buckets, whose widths (2.5 to 5 ms, 5 to
// 10 ms) would make an interpolated tail quantile jump within a bucket.
func latencyBounds() []float64 {
	var b []float64
	for v := 0.01; v < 1e4; v *= 1.05 {
		b = append(b, v)
	}
	return b
}

// framesOf is the number of event frames a device session sends for a
// cell: its wakes, one heartbeat per ingestHeartbeatEvery wakes, and the
// six-component energy split.
func framesOf(c *sim.FleetCell) int {
	return c.Wakes + (c.Wakes+ingestHeartbeatEvery-1)/ingestHeartbeatEvery + 6
}

// setup builds the population and starts and drains one daemon, the
// set-up an operator pays before the first frame.
func (g *ingestWorkload) setup() error {
	res, _, err := fleetd.BuildPopulation(g.size.devices, ingestAppsPerDevice, g.seed, g.size.traceDur, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	g.base = res.Cells
	g.cells = g.cells[:0]
	for frames := 0; frames < g.size.passFrames; {
		c := g.base[len(g.cells)%len(g.base)]
		g.cells = append(g.cells, c)
		frames += framesOf(&c)
	}
	srv, dir, err := g.startServer(telemetry.NewRegistry())
	if err != nil {
		return err
	}
	_, err = srv.Drain()
	os.RemoveAll(dir)
	return err
}

// startServer starts a daemon on an ephemeral loopback port that
// checkpoints into a fresh directory under the run's output directory.
func (g *ingestWorkload) startServer(reg *telemetry.Registry) (*fleetd.Server, string, error) {
	dir, err := os.MkdirTemp(g.out, "ingest-")
	if err != nil {
		return nil, "", err
	}
	srv, err := fleetd.NewServer(fleetd.Config{
		Addr:            "127.0.0.1:0",
		CheckpointPath:  filepath.Join(dir, "fleet.ckpt"),
		CheckpointEvery: ingestCheckpointEvery,
		Telemetry:       telemetry.Set{Metrics: reg},
	})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return srv, dir, nil
}

// pass replays the whole population once into a fresh daemon, drains it
// and checks the daemon's state against the replayed cells.
func (g *ingestWorkload) pass(rec *recorder, parent int) (passOut, error) {
	var p passOut
	reg := telemetry.NewRegistry()
	srv, dir, err := g.startServer(reg)
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)

	cfg := fleetd.LoadConfig{
		Addr:           srv.Addr(),
		Window:         ingestWindow,
		HeartbeatEvery: ingestHeartbeatEvery,
		Concurrency:    g.conc,
		Reconnect:      8, // fleetload's default budget
		AckTimeout:     10 * time.Second,
		Telemetry:      telemetry.Set{Metrics: g.client},
	}
	var rep *fleetd.LoadReport
	var loadErr error
	cpu0 := cpuSeconds()
	rec.do(parent, "fleetload", "RunLoad", func(int) error {
		rep, loadErr = fleetd.RunLoad(cfg, g.cells)
		return loadErr
	})
	p.cpu = cpuSeconds() - cpu0
	if rep == nil {
		srv.Drain()
		return p, fmt.Errorf("load generator: %w", loadErr)
	}
	var drain fleetd.DrainReport
	var drainErr error
	drainID, _ := rec.do(parent, "fleetd", "Drain", func(int) error {
		drain, drainErr = srv.Drain()
		return drainErr
	})
	if rec != nil {
		// Kept for the layer replay only: an untraced pass must not hold
		// the previous daemon's registry alive into the next pass.
		g.drainSec = rec.spanSeconds(drainID)
		g.lastReg, g.lastDrain, g.lastSrv, g.lastLoad = reg, drain, srv, rep
	}

	p.wall = rep.DurationSec
	p.events = float64(rep.Frames)
	p.latencyMS = [3]float64{rep.P50ms, rep.P99ms, rep.P999ms}
	p.latencyN = g.client.Histogram("fleetload.ack_latency_ms", nil).Count()

	// Output checks: every frame attempted is one operation; a shed, a
	// frame of an unrecovered device or of a device whose totals differ
	// from its cell is a failed one.
	attempted := 0
	for i := range g.cells {
		attempted += framesOf(&g.cells[i])
	}
	p.attempted = attempted + 3
	p.failed = int(rep.Shed)
	if rep.Shed > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d frames shed", rep.Shed))
	}
	if loadErr != nil {
		p.problems = append(p.problems, fmt.Sprintf("load generator: %v (%d unrecovered, %d mismatched devices)", loadErr, rep.Unrecovered, rep.Mismatches))
	}
	if rep.Mismatches != 0 {
		p.failed++
	}
	if drainErr != nil || !drain.ConservationOK {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf("drain: conservation ok=%v err %.3g mJ (%v)", drain.ConservationOK, drain.ConservationErrMJ, drainErr))
	}
	bad, digest := g.checkTotals(srv.Registry().Snapshot())
	p.digest = digest
	for _, i := range bad {
		p.failed += framesOf(&g.cells[i])
	}
	if len(bad) > 0 {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf("%d devices' totals differ from their replayed cells (first: device %d)", len(bad), bad[0]+1))
	}
	return p, nil
}

// checkTotals compares every device's totals in the daemon with the cell
// it replayed — wakes, heartbeats and each energy component bit for bit
// — and returns the indices of the cells that differ and a digest of
// every device's totals.
func (g *ingestWorkload) checkTotals(devs []fleetd.DeviceStats) (bad []int, digest string) {
	byID := make(map[uint64]fleetd.DeviceStats, len(devs))
	for _, d := range devs {
		byID[d.ID] = d
	}
	hash := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		hash.Write(buf[:])
	}
	for i := range g.cells {
		c := &g.cells[i]
		want := [...]struct {
			comp telemetry.Component
			mj   float64
		}{
			{telemetry.PhoneAsleep, c.PhoneStateMJ[power.Asleep]},
			{telemetry.PhoneWaking, c.PhoneStateMJ[power.WakingUp]},
			{telemetry.PhoneAwake, c.PhoneStateMJ[power.Awake]},
			{telemetry.PhoneFallingAsleep, c.PhoneStateMJ[power.FallingAsleep]},
			{telemetry.PhoneFallback, c.FallbackEnergyMJ},
			{telemetry.HubDevice, c.HubEnergyMJ},
		}
		d, ok := byID[uint64(i+1)]
		ok = ok && d.Wakes == uint64(c.Wakes) &&
			d.Heartbeats == uint64((c.Wakes+ingestHeartbeatEvery-1)/ingestHeartbeatEvery)
		for _, w := range want {
			ok = ok && int(w.comp) < len(d.EnergyMJ) && math.Float64bits(d.EnergyMJ[w.comp]) == math.Float64bits(w.mj)
		}
		if !ok {
			bad = append(bad, i)
		}
		put(d.ID)
		put(d.Wakes)
		put(d.Heartbeats)
		for _, e := range d.EnergyMJ {
			put(math.Float64bits(e))
		}
	}
	sort.Ints(bad)
	return bad, hex.EncodeToString(hash.Sum(nil)[:8])
}

// layers replays every layer on the population's own inputs: the
// BuildPopulation traces and fleet sweep, the cell matrix over those
// traces, and the daemon's counters from the traced pass.
func (g *ingestWorkload) layers(rec *recorder) (map[string]metric, error) {
	var busy, idle, office *sensor.Trace
	in := layerInputs{synth: []func() (*sensor.Trace, error){
		func() (tr *sensor.Trace, err error) {
			busy, err = tracegen.Robot(tracegen.RobotConfig{Seed: g.seed, Duration: g.size.traceDur, IdleFraction: 0.1})
			return busy, err
		},
		func() (tr *sensor.Trace, err error) {
			idle, err = tracegen.Robot(tracegen.RobotConfig{Seed: g.seed + 1, Duration: g.size.traceDur, IdleFraction: 0.9})
			return idle, err
		},
		func() (tr *sensor.Trace, err error) {
			office, err = tracegen.Audio(tracegen.NewAudioConfig(g.seed+2, g.size.traceDur, tracegen.OfficeAudio))
			return office, err
		},
	}}
	// The synthesis calls run first inside replayLayers; the modalities
	// and the fleet sweep read their traces through these closures.
	in.afterSynth = func(in *layerInputs) {
		in.modalities = []modality{
			{sim.SignificantMotion, []*sensor.Trace{busy, idle}, apps.AccelApps()},
			{sim.SignificantSound, []*sensor.Trace{office}, apps.AudioApps()},
		}
		in.fleet = []sim.FleetRunConfig{{
			Devices: g.size.devices, AppsPerDevice: ingestAppsPerDevice, Seed: g.seed,
			Workers: g.conc, Accel: []*sensor.Trace{busy, idle}, Audio: []*sensor.Trace{office},
			Telemetry: telemetry.Set{Ledger: telemetry.NewLedger()},
		}}
	}
	m, err := replayLayers(rec, in)
	if err != nil {
		return nil, err
	}
	return m, replayIngestLayers(rec, g, m)
}
