package interp

import (
	"math"
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

// catalogTraces synthesizes one trace per modality for the catalog-wide
// block-equivalence property test.
func catalogTraces(t *testing.T) map[string]*sensor.Trace {
	t.Helper()
	robot, err := tracegen.Robot(tracegen.RobotConfig{
		Seed: 5, Duration: 2 * time.Minute, IdleFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	audio, err := tracegen.Audio(tracegen.NewAudioConfig(9, 30*time.Second, tracegen.CoffeeShopAudio))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sensor.Trace{"accel": robot, "audio": audio}
}

// traceFor picks the modality trace matching an app's channels.
func traceFor(traces map[string]*sensor.Trace, app *apps.App) *sensor.Trace {
	for _, ch := range app.Channels {
		if ch == core.Mic {
			return traces["audio"]
		}
	}
	return traces["accel"]
}

// TestCatalogBlockEquivalence is the catalog-wide property test: for every
// application's wake-up condition, in both precisions, PushBlock at every
// chunking — chunk 1 being exactly what PushSample runs — produces
// byte-identical wake sequences and work meters to the per-value
// reference evaluator.
func TestCatalogBlockEquivalence(t *testing.T) {
	traces := catalogTraces(t)
	cat := core.DefaultCatalog()

	for _, app := range apps.All() {
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		tr := traceFor(traces, app)
		n := tr.Len()
		chans := make(map[core.SensorChannel][]float64, len(plan.Channels))
		for _, ch := range plan.Channels {
			samples, ok := tr.Channels[ch]
			if !ok {
				t.Fatalf("%s: trace lacks %s", app.Name, ch)
			}
			chans[ch] = samples
		}

		for _, prec := range []Precision{Float64, Q15} {
			ref, err := NewPrecision(plan, prec)
			if err != nil {
				t.Fatal(err)
			}
			var want []wakeRec
			for i := 0; i < n; i++ {
				for _, ch := range plan.Channels {
					for _, w := range refPushSample(ref, ch, chans[ch][i]) {
						want = append(want, wakeRec{i, w.NodeID, math.Float64bits(w.Value), w.Seq})
					}
				}
			}

			for _, chunk := range []int{1, 64, 1024, n} {
				m, err := NewPrecision(plan, prec)
				if err != nil {
					t.Fatal(err)
				}
				var got []wakeRec
				for _, w := range feedBlockedWakes(m, plan.Channels, chans, chunk) {
					got = append(got, wakeRec{w.Off, w.NodeID, math.Float64bits(w.Value), w.Seq})
				}
				label := app.Name + "/" + prec.String()
				compareWakes(t, label, want, got)
				if ref.Work() != m.Work() {
					t.Fatalf("%s chunk %d: work meter diverged: %+v vs %+v",
						label, chunk, ref.Work(), m.Work())
				}
			}
		}
	}
}
