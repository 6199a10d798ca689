package interp

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

// dagBenchPlans builds n wake conditions with heavy interior sharing: every
// plan runs the same movingAvg → window → rms feature chain over the
// microphone and differs only in its admission cutoff. The DAG pass
// collapses the whole interior to one shared execution; CSE-only
// compilation shares it too (it is a common prefix), so the pair
// benchmarks the dispatch machinery, not different amounts of arithmetic.
func dagBenchPlans(tb testing.TB, n int) []*core.Plan {
	tb.Helper()
	cat := core.DefaultCatalog()
	plans := make([]*core.Plan, n)
	for i := range plans {
		p := core.NewPipeline("bench")
		b := core.NewBranch(core.Mic)
		b.Add(core.MovingAverage(8))
		b.Add(core.Window(64, 0, "hamming"))
		b.Add(core.Stat("rms"))
		p.AddBranch(b)
		p.Add(core.MinThreshold(0.5 + 0.1*float64(i)))
		plan, err := p.Validate(cat)
		if err != nil {
			tb.Fatal(err)
		}
		plan.Name = p.Name()
		plans[i] = plan
	}
	return plans
}

// BenchmarkDAGMerged compares the fully optimized shared plan ("dag")
// against CSE-only compilation ("linear": common-prefix sharing and
// nothing else) on the block dispatch hot loop. Both must stay 0 allocs/op
// in steady state (enforced against docs/bench/baseline.txt by
// `make bench-check`).
func BenchmarkDAGMerged(b *testing.B) {
	const nApps = 6
	plans := dagBenchPlans(b, nApps)
	block := mergedWakeInput(256)

	for _, bc := range []struct {
		name string
		opts ir.CompileOptions
	}{
		{"linear", cseOnly},
		{"dag", ir.CompileOptions{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, _ := mustShared(b, Float64, bc.opts, plans...)
			m.PushBlock(core.Mic, block) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PushBlock(core.Mic, block)
			}
		})
	}
}

// TestDAGMergedSteadyStateAllocs is the tier-1 twin of the benchmark: the
// DAG-shared block path must not allocate once its scratch is warm.
func TestDAGMergedSteadyStateAllocs(t *testing.T) {
	plans := dagBenchPlans(t, 6)
	sp, err := ir.CompilePlans(core.DefaultCatalog(), ir.CompileOptions{}, plans...)
	if err != nil {
		t.Fatal(err)
	}
	block := mergedWakeInput(256)
	for _, prec := range []Precision{Float64, Q15} {
		m, err := NewShared(prec, sp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			m.PushBlock(core.Mic, block)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			m.PushBlock(core.Mic, block)
		}); allocs != 0 {
			t.Errorf("%s: shared PushBlock allocates %.1f allocs/op in steady state, want 0", prec, allocs)
		}
	}
}
