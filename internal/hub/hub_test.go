package hub

import (
	"errors"
	"math/rand"
	"testing"

	"sidewinder/internal/core"
)

func plan(t *testing.T, p *core.Pipeline) *core.Plan {
	t.Helper()
	pl, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func accelPlan(t *testing.T) *core.Plan {
	p := core.NewPipeline("sig-motion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(15))
	return plan(t, p)
}

func sirenPlan(t *testing.T) *core.Plan {
	p := core.NewPipeline("siren")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(750, 512)).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Tonality(850, 1800, core.AudioRateHz)).
		Add(core.MinThresholdSustained(4, 3)))
	return plan(t, p)
}

func musicPlan(t *testing.T) *core.Plan {
	p := core.NewPipeline("music")
	p.AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(512, 0, "")).Add(core.Stat("variance")).Add(core.MinThreshold(0.01)),
		core.NewBranch(core.Mic).Add(core.Window(512, 0, "")).Add(core.ZCRVariance(8)).Add(core.BandThreshold(1e-4, 0.01)),
	)
	p.Add(core.And())
	return plan(t, p)
}

func TestAccelConditionFitsMSP430(t *testing.T) {
	d := MSP430()
	pl := accelPlan(t)
	if err := d.CheckFeasible(pl); err != nil {
		t.Fatalf("accel condition should fit MSP430: %v (util %.4f)", err, d.Utilization(pl))
	}
	if u := d.Utilization(pl); u <= 0 || u > 0.01 {
		t.Errorf("accel utilization on MSP430 = %f, want tiny but positive", u)
	}
}

func TestSirenConditionRejectedByMSP430(t *testing.T) {
	// Reproduces the paper's §4 observation: the MSP430 "was unable to
	// run the FFT-based low-pass filter in real-time".
	err := MSP430().CheckFeasible(sirenPlan(t))
	if !errors.Is(err, ErrNotRealTime) {
		t.Fatalf("expected ErrNotRealTime, got %v", err)
	}
}

func TestSirenConditionFitsLM4F120(t *testing.T) {
	d := LM4F120()
	pl := sirenPlan(t)
	if err := d.CheckFeasible(pl); err != nil {
		t.Fatalf("siren condition should fit LM4F120: %v (util %.4f)", err, d.Utilization(pl))
	}
}

func TestMusicConditionFitsMSP430(t *testing.T) {
	// Table 2 attributes the MSP430's power to music and phrase
	// detection: their windowed time-domain features avoid the FFT.
	d := MSP430()
	pl := musicPlan(t)
	if err := d.CheckFeasible(pl); err != nil {
		t.Fatalf("music condition should fit MSP430: %v (util %.4f, mem %d)",
			err, d.Utilization(pl), pl.TotalMemory())
	}
}

func TestSelectDevicePicksLowestPowerFeasible(t *testing.T) {
	d, err := SelectDevice(Devices(), accelPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "MSP430" {
		t.Errorf("accel condition placed on %s, want MSP430", d.Name)
	}
	d, err = SelectDevice(Devices(), sirenPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "LM4F120" {
		t.Errorf("siren condition placed on %s, want LM4F120", d.Name)
	}
}

func TestSelectDeviceConcurrentConditions(t *testing.T) {
	// Multiple accel conditions still fit the MSP430 together.
	a, b := accelPlan(t), accelPlan(t)
	d, err := SelectDevice(Devices(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "MSP430" {
		t.Errorf("two accel conditions placed on %s, want MSP430", d.Name)
	}
	// Adding the siren forces the upgrade.
	d, err = SelectDevice(Devices(), a, sirenPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "LM4F120" {
		t.Errorf("accel+siren placed on %s, want LM4F120", d.Name)
	}
}

func TestSelectDeviceErrors(t *testing.T) {
	if _, err := SelectDevice(Devices()); err == nil {
		t.Error("no plans should fail")
	}
	if _, err := SelectDevice(nil, accelPlan(t)); err == nil {
		t.Error("no candidates should fail")
	}
	// A plan too big for everything.
	big := plan(t, core.NewPipeline("big").AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(1<<18, 0, "")).Add(core.Stat("median")).Add(core.MinThreshold(0))))
	_, err := SelectDevice(Devices(), big)
	if err == nil {
		t.Fatal("giant plan should not place anywhere")
	}
}

func TestOutOfMemoryDetected(t *testing.T) {
	big := plan(t, core.NewPipeline("big").AddBranch(
		core.NewBranch(core.AccelX).Add(core.Window(1<<14, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(0))))
	err := MSP430().CheckFeasible(big)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestDevicePowerOrdering(t *testing.T) {
	devs := Devices()
	for i := 1; i < len(devs); i++ {
		if devs[i-1].ActivePowerMW >= devs[i].ActivePowerMW {
			t.Errorf("device ladder not in increasing power order: %s >= %s",
				devs[i-1].Name, devs[i].Name)
		}
	}
	if MSP430().ActivePowerMW != 3.6 || LM4F120().ActivePowerMW != 49.4 {
		t.Error("paper power constants wrong")
	}
}

func TestUtilizationZeroClock(t *testing.T) {
	d := Device{}
	if d.Utilization(accelPlan(t)) != 0 {
		t.Error("zero-clock device should report zero utilization")
	}
}

func TestBudgetFromDeviceConstants(t *testing.T) {
	for _, d := range Devices() {
		if got, want := d.CycleBudget(), d.ClockHz*d.MaxUtilization; got != want {
			t.Errorf("%s cycle budget = %g, want %g", d.Name, got, want)
		}
		// The budget is inclusive: a demand of exactly the budget cycles
		// and exactly the RAM fits; one cycle or one byte more does not.
		atBudget := d.CycleBudget() / d.CyclesPerIntOp
		if !d.Fits(0, atBudget, d.RAMBytes) {
			t.Errorf("%s: demand at the budget does not fit", d.Name)
		}
		if d.Fits(0, atBudget+1, d.RAMBytes) || d.Fits(0, atBudget, d.RAMBytes+1) {
			t.Errorf("%s: demand over the budget fits", d.Name)
		}
		if got := d.Cycles(2, 3); got != 2*d.CyclesPerFloatOp+3*d.CyclesPerIntOp {
			t.Errorf("%s: Cycles(2, 3) = %g", d.Name, got)
		}
	}
}

func TestFitsBudget(t *testing.T) {
	pl := accelPlan(t)
	f, i := pl.TotalOpsPerSecond()
	if !MSP430().Fits(f, i, pl.TotalMemory()) {
		t.Fatal("accel condition does not fit the MSP430")
	}
	tiny := MSP430()
	tiny.ClockHz, tiny.RAMBytes = 2, 1 // one cycle per second, one byte
	if tiny.Fits(f, i, pl.TotalMemory()) {
		t.Fatal("plan fits a 1-cycle budget")
	}
}

// TestFitsAgreesWithCheckDemand: over random demands straddling each
// device's budget, the allocation-free Fits is exactly CheckDemand == nil,
// and a refusal wraps the error for the resource that ran out.
func TestFitsAgreesWithCheckDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range Devices() {
		for k := 0; k < 2000; k++ {
			f := rng.Float64() * 2 * d.CycleBudget() / d.CyclesPerFloatOp
			i := rng.Float64() * 2 * d.CycleBudget() / d.CyclesPerIntOp
			if k%2 == 0 {
				f = 0 // int-only demands reach the cycle edge from one column
			}
			mem := rng.Intn(2 * d.RAMBytes)
			err := d.CheckDemand(f, i, mem)
			if fits := d.Fits(f, i, mem); fits != (err == nil) {
				t.Fatalf("%s: Fits(%g, %g, %d) = %v, CheckDemand = %v", d.Name, f, i, mem, fits, err)
			}
			switch {
			case d.Cycles(f, i) > d.CycleBudget():
				if !errors.Is(err, ErrNotRealTime) {
					t.Fatalf("%s: cycle overrun not ErrNotRealTime: %v", d.Name, err)
				}
			case mem > d.RAMBytes:
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatalf("%s: RAM overrun not ErrOutOfMemory: %v", d.Name, err)
				}
			}
		}
	}
}
