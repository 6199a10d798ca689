package manager

import (
	"math"
	"testing"

	"sidewinder/internal/core"
)

// micBurst builds a deterministic audio-like signal with several loud
// bursts separated by silence, long enough for multiple window emissions.
func micBurst(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		amp := 0.05
		if (i/200)%3 == 0 {
			amp = 2.0
		}
		out[i] = amp * math.Sin(2*math.Pi*float64(i)/14)
	}
	return out
}

// TestFeedBlockMatchesFeed checks that the hub's block fast path is
// observationally identical to per-sample feeding: same wake events in the
// same order, same values, same buffered-data snapshots, same frame count.
func TestFeedBlockMatchesFeed(t *testing.T) {
	pipeline := func() *core.Pipeline {
		p := core.NewPipeline("mic-energy")
		p.AddBranch(core.NewBranch(core.Mic).
			Add(core.Window(64, 64, "")).
			Add(core.Stat("rms")).
			Add(core.MinThreshold(0.5)))
		return p
	}
	sig := micBurst(2000)

	type rec struct {
		CondID uint16
		Value  float64
		Data   []float64
	}
	run := func(feed func(tb *Testbed) error) ([]rec, int) {
		tb := newBed(t)
		var events []rec
		if _, _, err := tb.Push(pipeline(), ListenerFunc(func(e Event) {
			events = append(events, rec{e.CondID, e.Value, append([]float64(nil), e.Data[core.Mic]...)})
		})); err != nil {
			t.Fatal(err)
		}
		if err := feed(tb); err != nil {
			t.Fatal(err)
		}
		return events, tb.Hub.WakesSent()
	}

	want, wantSent := run(func(tb *Testbed) error {
		return tb.FeedSlice(core.Mic, sig)
	})
	if len(want) == 0 {
		t.Fatal("reference run produced no wake events")
	}

	for _, chunk := range []int{1, 17, 256, len(sig)} {
		got, gotSent := run(func(tb *Testbed) error {
			for base := 0; base < len(sig); base += chunk {
				end := base + chunk
				if end > len(sig) {
					end = len(sig)
				}
				if err := tb.FeedBlock(core.Mic, sig[base:end]); err != nil {
					return err
				}
			}
			return nil
		})
		if gotSent != wantSent {
			t.Fatalf("chunk %d: hub sent %d wakes, want %d", chunk, gotSent, wantSent)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d events, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i].CondID != want[i].CondID || got[i].Value != want[i].Value {
				t.Fatalf("chunk %d: event %d = %+v, want %+v", chunk, i, got[i], want[i])
			}
			if len(got[i].Data) != len(want[i].Data) {
				t.Fatalf("chunk %d: event %d data length %d, want %d",
					chunk, i, len(got[i].Data), len(want[i].Data))
			}
			for j := range want[i].Data {
				if got[i].Data[j] != want[i].Data[j] {
					t.Fatalf("chunk %d: event %d data[%d] = %g, want %g",
						chunk, i, j, got[i].Data[j], want[i].Data[j])
				}
			}
		}
	}
}

// TestFeedSteadyStateAllocs pins the hub's per-sample path in tier 1: Feed
// is a one-sample FeedBlock through hub-owned storage and must not
// allocate once the machine is warm (wakes are suppressed, so no frames
// are built).
func TestFeedSteadyStateAllocs(t *testing.T) {
	tb := newBed(t)
	p := core.NewPipeline("mic-energy")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(64, 32, "")).
		Add(core.Stat("rms")).
		Add(core.MinThreshold(1e18)))
	if _, _, err := tb.Push(p, ListenerFunc(func(Event) {})); err != nil {
		t.Fatal(err)
	}
	sig := micBurst(2000)
	for _, v := range sig {
		if err := tb.Hub.Feed(core.Mic, v); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		tb.Hub.Feed(core.Mic, sig[i%len(sig)])
		i++
	})
	if allocs != 0 {
		t.Errorf("HubNode.Feed allocates %.2f allocs/op in steady state, want 0", allocs)
	}
}
