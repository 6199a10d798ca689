package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sidewinder/internal/adapt"
	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// adaptiveCombos is the property-test corpus: both continuous
// accelerometer conditions on a mixed robot trace, and every audio
// application on a generated environment — the combos span both hub
// devices, the Q15 rung, the decimation rungs, a re-admission veto
// (music) and the AIMD threshold axis (phrase).
func adaptiveCombos(t *testing.T) []struct {
	app *apps.App
	tr  *sensor.Trace
} {
	t.Helper()
	robot := robotTrace(t, 0.5)
	out := []struct {
		app *apps.App
		tr  *sensor.Trace
	}{
		{apps.Steps(), robot},
		{apps.Transitions(), robot},
	}
	envs := tracegen.AudioEnvironments()
	for i, app := range apps.AudioApps() {
		env := envs[i%len(envs)]
		cfg := tracegen.NewAudioConfig(1+int64(i)*101, 4*time.Minute, env)
		tr, err := tracegen.Audio(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			app *apps.App
			tr  *sensor.Trace
		}{app, tr})
	}
	return out
}

// adaptiveTestConfig shortens patience/cooldown the same way the eval
// sweep does, so minutes-long traces exercise the whole ladder.
func adaptiveTestConfig() adapt.Config {
	cfg := adapt.DefaultConfig()
	cfg.Patience = 3
	cfg.Cooldown = 6
	return cfg
}

func deviceByName(t *testing.T, name string) hub.Device {
	t.Helper()
	for _, d := range hub.Devices() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("unknown device %q", name)
	return hub.Device{}
}

// TestAdaptiveBudgetAndLedgerProperties pins the two contracts every
// adaptation sequence must honor, on every corpus combo:
//
//  1. Budget invariance — the configuration resident at the end of the
//     run, re-resolved from its knobs exactly as the simulator admitted
//     it, fits the placed device's cycle/RAM budget and demands no more
//     cycles than the statically pushed program. Adaptation can only
//     move demand down.
//  2. Ledger conservation — AdaptedMJ + SavingsMJ == StaticMJ to 1e-9,
//     the ledger's hub.device and adapt.savings components carry exactly
//     those quantities, and the phone components still sum to the power
//     report's phone share. Savings are never negative, and across the
//     corpus they are strictly positive (the experiment's acceptance
//     criterion), with the observed missed-wake rate inside the bound.
func TestAdaptiveBudgetAndLedgerProperties(t *testing.T) {
	cfg := adaptiveTestConfig()
	cat := core.DefaultCatalog()
	totalSavings := 0.0
	for _, combo := range adaptiveCombos(t) {
		led := telemetry.NewLedger()
		r, err := AdaptiveSidewinder{Config: cfg, Telemetry: telemetry.Set{Ledger: led}}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatalf("%s/%s: %v", combo.app.Name, combo.tr.Name, err)
		}
		a := r.Adapt
		if a == nil {
			t.Fatalf("%s: no adaptation stats", combo.app.Name)
		}

		// Property 1: the final resident configuration re-admits cleanly.
		base, err := combo.app.Wake.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		dev := deviceByName(t, r.Device)
		baseF, baseI, _ := adapt.Demand(base, interp.Float64)
		plan, err := adapt.Reparameterize(cat, base, a.FinalKnobs)
		if err != nil {
			t.Fatalf("%s: final knobs %+v do not reparameterize: %v", combo.app.Name, a.FinalKnobs, err)
		}
		f, i, mem := adapt.Demand(plan, a.FinalKnobs.Precision)
		if !dev.Fits(f, i, mem) {
			t.Errorf("%s: final configuration exceeds %s budget (f=%g i=%g mem=%d)",
				combo.app.Name, r.Device, f, i, mem)
		}
		if dev.Cycles(f, i) > dev.Cycles(baseF, baseI) {
			t.Errorf("%s: adapted demand %.0f cyc/s above static %.0f cyc/s",
				combo.app.Name, dev.Cycles(f, i), dev.Cycles(baseF, baseI))
		}
		// Knobs stay inside the configured bounds.
		k := a.FinalKnobs
		if k.Decimation < 1 || k.Decimation > cfg.MaxDecimation ||
			k.WindowScale < 1 || k.WindowScale > cfg.MaxWindowScale ||
			k.ThresholdFactor < 1 || k.ThresholdFactor > cfg.ThresholdMax ||
			(k.Precision == interp.Q15 && !cfg.AllowQ15) {
			t.Errorf("%s: final knobs %+v escape config bounds", combo.app.Name, k)
		}

		// Property 2: energy conservation at 1e-9.
		if a.SavingsMJ < -1e-9 {
			t.Errorf("%s: negative savings %.12g mJ", combo.app.Name, a.SavingsMJ)
		}
		if diff := math.Abs(a.AdaptedMJ + a.SavingsMJ - a.StaticMJ); diff > 1e-9*math.Max(1, a.StaticMJ) {
			t.Errorf("%s: adapted %.12g + savings %.12g != static %.12g",
				combo.app.Name, a.AdaptedMJ, a.SavingsMJ, a.StaticMJ)
		}
		if diff := math.Abs(led.EnergyMJ(telemetry.HubDevice) - a.AdaptedMJ); diff > 1e-9*math.Max(1, a.AdaptedMJ) {
			t.Errorf("%s: ledger hub.device %.12g != adapted %.12g",
				combo.app.Name, led.EnergyMJ(telemetry.HubDevice), a.AdaptedMJ)
		}
		if diff := math.Abs(led.EnergyMJ(telemetry.AdaptSavings) - a.SavingsMJ); diff > 1e-9*math.Max(1, a.SavingsMJ) {
			t.Errorf("%s: ledger adapt.savings %.12g != savings %.12g",
				combo.app.Name, led.EnergyMJ(telemetry.AdaptSavings), a.SavingsMJ)
		}
		dur := r.Power.AsleepSec + r.Power.WakingSec + r.Power.AwakeSec + r.Power.SleepingSec
		var phone float64
		for _, c := range []telemetry.Component{
			telemetry.PhoneAsleep, telemetry.PhoneWaking,
			telemetry.PhoneAwake, telemetry.PhoneFallingAsleep,
		} {
			phone += led.EnergyMJ(c)
		}
		if diff := math.Abs(phone - r.Power.PhoneAvgMW*dur); diff > 1e-9*math.Max(1, phone) {
			t.Errorf("%s: phone components %.12g != report %.12g",
				combo.app.Name, phone, r.Power.PhoneAvgMW*dur)
		}
		// Everything the ledger holds beyond the savings attribution is
		// energy the run actually spent.
		spent := led.TotalMJ() - led.EnergyMJ(telemetry.AdaptSavings)
		if diff := math.Abs(spent - r.Power.TotalAvgMW*dur); diff > 1e-9*math.Max(1, spent) {
			t.Errorf("%s: ledger spend %.12g != run aggregate %.12g",
				combo.app.Name, spent, r.Power.TotalAvgMW*dur)
		}

		if a.MissedRate > cfg.MissedWakeBound+1e-12 {
			t.Errorf("%s: missed-wake rate %.3f above bound %.3f",
				combo.app.Name, a.MissedRate, cfg.MissedWakeBound)
		}
		totalSavings += a.SavingsMJ
	}
	if totalSavings <= 0 {
		t.Errorf("corpus-wide savings %.3f mJ, want > 0", totalSavings)
	}
}

// TestAdaptiveFrozenArmIsStatic: the frozen control arm must bill exactly
// the static counterfactual — zero savings by construction, no adoptions,
// baseline knobs — so the experiment's delta is purely the policy.
func TestAdaptiveFrozenArmIsStatic(t *testing.T) {
	cfg := adaptiveTestConfig()
	for _, combo := range adaptiveCombos(t) {
		r, err := AdaptiveSidewinder{Config: cfg, Frozen: true}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatalf("%s: %v", combo.app.Name, err)
		}
		a := r.Adapt
		if a.SavingsMJ != 0 {
			t.Errorf("%s: frozen arm saved %.12g mJ, want exactly 0", combo.app.Name, a.SavingsMJ)
		}
		if a.Adoptions != 0 || a.Changes != 0 {
			t.Errorf("%s: frozen arm adapted: %+v", combo.app.Name, a)
		}
		k := a.FinalKnobs
		if k.Decimation != 1 || k.WindowScale != 1 || k.ThresholdFactor != 1 || k.Precision != interp.Float64 {
			t.Errorf("%s: frozen arm moved knobs: %+v", combo.app.Name, k)
		}
	}
}

// TestAdaptiveDeterminism: the policy is driven only by the trace, so two
// runs are identical and telemetry instrumentation changes nothing — the
// foundation of the CI worker-invariance leg.
func TestAdaptiveDeterminism(t *testing.T) {
	cfg := adaptiveTestConfig()
	combos := adaptiveCombos(t)
	for _, combo := range combos[:3] { // steps, transitions, first audio app
		bare1, err := AdaptiveSidewinder{Config: cfg}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatal(err)
		}
		bare2, err := AdaptiveSidewinder{Config: cfg}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatal(err)
		}
		if bare1.Power != bare2.Power || bare1.Recall != bare2.Recall {
			t.Errorf("%s: repeated run diverged", combo.app.Name)
		}
		if !reflect.DeepEqual(bare1.Adapt, bare2.Adapt) {
			t.Errorf("%s: adaptation stats diverged:\n%+v\n%+v", combo.app.Name, bare1.Adapt, bare2.Adapt)
		}
		instr, err := AdaptiveSidewinder{Config: cfg, Telemetry: telemetry.Set{
			Metrics: telemetry.NewRegistry(),
			Ledger:  telemetry.NewLedger(),
			Tracer:  telemetry.NewTracer(),
		}}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatal(err)
		}
		if bare1.Power != instr.Power || !reflect.DeepEqual(bare1.Adapt, instr.Adapt) {
			t.Errorf("%s: telemetry changed the run", combo.app.Name)
		}
	}
}

// TestAdaptiveValidation covers the error paths: an app whose channels
// the trace lacks, and a config whose every non-baseline rung is
// unreachable (the engine then never leaves the pushed program).
func TestAdaptiveValidation(t *testing.T) {
	tr := robotTrace(t, 0.5)
	if _, err := (AdaptiveSidewinder{}).Run(tr, apps.Sirens()); err == nil {
		t.Error("missing mic channel must error")
	}
	cfg := adapt.DefaultConfig()
	cfg.MaxDecimation = 1
	cfg.AllowQ15 = false
	cfg.Patience = 1
	r, err := AdaptiveSidewinder{Config: cfg}.Run(tr, apps.Steps())
	if err != nil {
		t.Fatal(err)
	}
	if k := r.Adapt.FinalKnobs; k.Decimation != 1 || k.Precision != interp.Float64 {
		t.Errorf("single-rung ladder escaped baseline: %+v", k)
	}
}
