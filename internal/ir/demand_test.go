package ir

import (
	"math"
	"math/rand"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/testutil"
)

// Property tests for DAG demand billing over generated pipeline pairs.
// PR 4 pinned shared-prefix billing; the DAG generalizes sharing to any
// interior subgraph, so these pin the stronger conservation law: merged
// demand equals the sum of solo demands minus exactly the demand of the
// shared keys — nothing double-billed, nothing silently dropped.

const demandEps = 1e-9

func randomPlans(t *testing.T, rng *rand.Rand, n int) []*core.Plan {
	t.Helper()
	cat := core.DefaultCatalog()
	plans := make([]*core.Plan, n)
	for i := range plans {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		plans[i] = plan
	}
	return plans
}

// TestDemandConservation is the ledger law: for any pair of plans,
// solo(A) + solo(B) - merged(A,B) must equal exactly the demand of the
// keys the two plans share — i.e. every shared subgraph is billed once
// and only once, to 1e-9.
func TestDemandConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	opts := CompileOptions{}
	sawSharing := false
	for i := 0; i < 200; i++ {
		plans := randomPlans(t, rng, 2)
		a, b := plans[0], plans[1]

		fa, ia, ma := Demand(opts, a)
		fb, ib, mb := Demand(opts, b)
		fm, im, mm := Demand(opts, a, b)

		// Merged never exceeds the naive sum, and never undercuts the
		// larger solo (executing B alongside A cannot make A cheaper).
		if fm > fa+fb+demandEps || im > ia+ib+demandEps || mm > ma+mb {
			t.Fatalf("pair %d: merged demand exceeds sum: %g/%g/%d vs %g/%g/%d",
				i, fm, im, mm, fa+fb, ia+ib, ma+mb)
		}
		if fm < math.Max(fa, fb)-demandEps || mm < ma || mm < mb {
			t.Fatalf("pair %d: merged demand below a solo demand", i)
		}

		// Exact conservation: the overlap equals the demand of the keys
		// both solo analyses contain.
		bKeys := make(map[string]bool)
		for _, nd := range AnalyzePlan(opts, b) {
			bKeys[nd.Key] = true
		}
		var fs, is float64
		var ms int
		shared := false
		for _, nd := range AnalyzePlan(opts, a) {
			if bKeys[nd.Key] {
				shared = true
				fs += nd.FloatOpsPerSec
				is += nd.IntOpsPerSec
				ms += nd.MemoryBytes
			}
		}
		if shared {
			sawSharing = true
		}
		if math.Abs((fa+fb-fm)-fs) > demandEps || math.Abs((ia+ib-im)-is) > demandEps || (ma+mb-mm) != ms {
			t.Fatalf("pair %d: conservation violated: overlap %g/%g/%d, shared-key demand %g/%g/%d",
				i, fa+fb-fm, ia+ib-im, ma+mb-mm, fs, is, ms)
		}
	}
	if !sawSharing {
		t.Fatal("no generated pair shared a subgraph: the conservation law was never exercised")
	}
}

// TestDemandAccumulatorMatchesBatch pins that incremental pricing
// (Marginal/Commit, the admission controller's path) lands on the same
// totals as the one-shot Demand over the committed set — and that a
// committed plan's marginal is exactly zero.
func TestDemandAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	opts := CompileOptions{}
	for i := 0; i < 50; i++ {
		plans := randomPlans(t, rng, 1+rng.Intn(4))
		acc := NewDemandAccumulator(opts)
		for _, p := range plans {
			mf, mi, mm := acc.Marginal(p)
			bf, bi, bm := acc.Total()
			cf, ci, cm := acc.Commit(p)
			if math.Abs(bf+mf-cf) > demandEps || math.Abs(bi+mi-ci) > demandEps || bm+mm != cm {
				t.Fatalf("set %d: marginal %g/%g/%d does not bridge totals", i, mf, mi, mm)
			}
			if mf2, mi2, mm2 := acc.Marginal(p); mf2 != 0 || mi2 != 0 || mm2 != 0 {
				t.Fatalf("set %d: committed plan still has marginal %g/%g/%d", i, mf2, mi2, mm2)
			}
		}
		af, ai, am := acc.Total()
		df, di, dm := Demand(opts, plans...)
		if math.Abs(af-df) > demandEps || math.Abs(ai-di) > demandEps || am != dm {
			t.Fatalf("set %d: accumulator %g/%g/%d vs batch %g/%g/%d",
				i, af, ai, am, df, di, dm)
		}
	}
}

// TestNoOptDemandEqualsPlanTotals pins the ablation anchor: with every
// rewrite disabled, DAG demand is exactly the naive per-plan sum the
// pre-DAG scheduler would have billed.
func TestNoOptDemandEqualsPlanTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 50; i++ {
		plans := randomPlans(t, rng, 1+rng.Intn(3))
		var wf, wi float64
		var wm int
		for _, p := range plans {
			f, iOps := p.TotalOpsPerSecond()
			wf += f
			wi += iOps
			wm += p.TotalMemory()
		}
		gf, gi, gm := Demand(NoOpt(), plans...)
		if math.Abs(gf-wf) > demandEps || math.Abs(gi-wi) > demandEps || gm != wm {
			t.Fatalf("set %d: NoOpt demand %g/%g/%d, naive totals %g/%g/%d",
				i, gf, gi, gm, wf, wi, wm)
		}
	}
}

// TestDemandByKindSumsToDemand pins that the per-kind breakdown is a
// partition of the total.
func TestDemandByKindSumsToDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plans := randomPlans(t, rng, 4)
	df, di, dm := Demand(CompileOptions{}, plans...)
	var kf, ki float64
	var km, nodes int
	for _, kd := range DemandByKind(CompileOptions{}, plans...) {
		kf += kd.FloatOpsPerSec
		ki += kd.IntOpsPerSec
		km += kd.MemoryBytes
		nodes += kd.Nodes
	}
	if math.Abs(kf-df) > demandEps || math.Abs(ki-di) > demandEps || km != dm {
		t.Fatalf("per-kind sums %g/%g/%d vs demand %g/%g/%d", kf, ki, km, df, di, dm)
	}
	if nodes == 0 {
		t.Fatal("no nodes in breakdown")
	}
}

// TestNoOptAccumulatorBillsEveryCommit: without CSE nothing is shared, so
// committing the same plan twice bills twice its Demand, and a second
// plan is billed in full even though its node keys (numbered per plan)
// repeat the first plan's.
func TestNoOptAccumulatorBillsEveryCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		plans := randomPlans(t, rng, 2)
		acc := NewDemandAccumulator(NoOpt())
		wf, wi, wm := Demand(NoOpt(), plans[0])
		if mf, mi, mm := acc.Marginal(plans[0]); mf != wf || mi != wi || mm != wm {
			t.Fatalf("set %d: first marginal %g/%g/%d, want Demand %g/%g/%d", i, mf, mi, mm, wf, wi, wm)
		}
		acc.Commit(plans[0])
		if mf, mi, mm := acc.Marginal(plans[0]); mf != wf || mi != wi || mm != wm {
			t.Fatalf("set %d: committed plan's marginal %g/%g/%d, want its full Demand %g/%g/%d",
				i, mf, mi, mm, wf, wi, wm)
		}
		if gf, gi, gm := acc.Commit(plans[0]); math.Abs(gf-2*wf) > demandEps ||
			math.Abs(gi-2*wi) > demandEps || gm != 2*wm {
			t.Fatalf("set %d: plan committed twice bills %g/%g/%d, want %g/%g/%d",
				i, gf, gi, gm, 2*wf, 2*wi, 2*wm)
		}
		acc = NewDemandAccumulator(NoOpt())
		acc.Commit(plans[0])
		gf, gi, gm := acc.Commit(plans[1])
		df, di, dm := Demand(NoOpt(), plans...)
		if math.Abs(gf-df) > demandEps || math.Abs(gi-di) > demandEps || gm != dm {
			t.Fatalf("set %d: two plans accumulate %g/%g/%d, Demand says %g/%g/%d",
				i, gf, gi, gm, df, di, dm)
		}
	}
}
