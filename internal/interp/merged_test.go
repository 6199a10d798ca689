package interp

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

// twoWindowPlans builds two pipelines sharing an identical window stage
// over MIC but diverging in features.
func twoWindowPlans(t *testing.T) (*core.Plan, *core.Plan) {
	t.Helper()
	cat := core.DefaultCatalog()
	a := core.NewPipeline("a")
	a.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(4, 0, "")).
		Add(core.Stat("mean")).
		Add(core.MinThreshold(1)))
	b := core.NewPipeline("b")
	b.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(4, 0, "")).
		Add(core.Stat("range")).
		Add(core.MinThreshold(2)))
	pa, err := a.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

// TestMergedSharesCommonPrefix: compiled together, the two plans share
// their identical window stage, and the shared machine runs one instance
// per lowered node.
func TestMergedSharesCommonPrefix(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	m, sp := mustShared(t, Float64, cseOnly, pa, pb)
	// 3 + 3 plan nodes, window shared once -> 5 live nodes.
	if sp.Stats.OutNodes != 5 || len(m.nodes) != 5 {
		t.Errorf("live nodes = %d (machine %d), want 5", sp.Stats.OutNodes, len(m.nodes))
	}
	if sp.Stats.Eliminated() != 1 {
		t.Errorf("eliminated = %d, want 1", sp.Stats.Eliminated())
	}
	if len(sp.Sources) != 2 {
		t.Errorf("sources = %d", len(sp.Sources))
	}
}

func TestMergedMatchesSeparateMachines(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	merged, _ := mustShared(t, Float64, cseOnly, pa, pb)
	ma, err := New(pa)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(pb)
	if err != nil {
		t.Fatal(err)
	}
	// Feed identical data; merged wakes must equal the union of the
	// separate machines' wakes, tagged correctly.
	inputs := []float64{0, 0, 0, 0, 2, 2, 2, 2, -1, 3, 1, 0, 5, 5, 5, 5}
	for _, v := range inputs {
		var wantA, wantB int
		wantA = len(ma.PushSample(core.Mic, v))
		wantB = len(mb.PushSample(core.Mic, v))
		var gotA, gotB int
		for _, w := range merged.PushSample(core.Mic, v) {
			switch w.Plan {
			case 0:
				gotA++
			case 1:
				gotB++
			default:
				t.Fatalf("unexpected plan tag %d", w.Plan)
			}
		}
		if gotA != wantA || gotB != wantB {
			t.Fatalf("sample %g: merged wakes (%d,%d), separate (%d,%d)", v, gotA, gotB, wantA, wantB)
		}
	}
}

func TestMergedWorkLessThanSeparate(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	merged, _ := mustShared(t, Float64, cseOnly, pa, pb)
	ma, _ := New(pa)
	mb, _ := New(pb)
	for i := 0; i < 400; i++ {
		v := float64(i % 9)
		merged.PushSample(core.Mic, v)
		ma.PushSample(core.Mic, v)
		mb.PushSample(core.Mic, v)
	}
	separate := ma.Work().Add(mb.Work())
	shared := merged.Work()
	if shared.IntOps >= separate.IntOps {
		t.Errorf("merged int work %.0f should be below separate %.0f", shared.IntOps, separate.IntOps)
	}
}

func TestMergedIdenticalPlansFullSharing(t *testing.T) {
	pa, _ := twoWindowPlans(t)
	pa2, _ := twoWindowPlans(t)
	m, sp := mustShared(t, Float64, cseOnly, pa, pa2)
	// Fully identical plans: every node shared, one OUT node tagged for
	// both plans.
	if sp.Stats.OutNodes != 3 || len(m.nodes) != 3 {
		t.Errorf("live nodes = %d (machine %d), want 3", sp.Stats.OutNodes, len(m.nodes))
	}
	if sp.Stats.Eliminated() != 3 {
		t.Errorf("eliminated = %d, want 3", sp.Stats.Eliminated())
	}
	var plans []int
	for _, v := range []float64{3, 3, 3, 3} {
		for _, w := range m.PushSample(core.Mic, v) {
			plans = append(plans, w.Plan)
		}
	}
	if len(plans) != 2 || plans[0] != 0 || plans[1] != 1 {
		t.Errorf("identical plans should both fire, in plan order: got plans %v", plans)
	}
}

// The demand tests below pin the billing the hub places a shared set on
// (ir.Demand, default compile options), against the sharing the shared
// machine executes.

func TestMergedDemandDeduplicates(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	fBoth, iBoth, memBoth := ir.Demand(ir.CompileOptions{}, pa, pb)
	fA, iA, memA := ir.Demand(ir.CompileOptions{}, pa)
	fB, iB, memB := ir.Demand(ir.CompileOptions{}, pb)
	if fBoth >= fA+fB && iBoth >= iA+iB {
		t.Errorf("merged demand (%.1f, %.1f) not below sum (%.1f, %.1f)", fBoth, iBoth, fA+fB, iA+iB)
	}
	if memBoth >= memA+memB {
		t.Errorf("merged memory %d not below sum %d", memBoth, memA+memB)
	}
	// And never below the larger single plan.
	if memBoth < memA || memBoth < memB {
		t.Errorf("merged memory %d below a single plan (%d, %d)", memBoth, memA, memB)
	}
}

func TestMergedResetAndWorkMeter(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	m, _ := mustShared(t, Float64, cseOnly, pa, pb)
	for i := 0; i < 8; i++ {
		m.PushSample(core.Mic, 3)
	}
	w := m.Work()
	if w.IntOps == 0 && w.FloatOps == 0 {
		t.Error("work meter did not accumulate")
	}
	m.Reset()
	if m.Work() != w {
		t.Error("Reset must leave the work meter untouched")
	}
	// After reset the shared window must refill: 3 samples produce no
	// wake even though values are high.
	n := 0
	for i := 0; i < 3; i++ {
		n += len(m.PushSample(core.Mic, 9))
	}
	if n != 0 {
		t.Errorf("state survived Reset: %d wakes", n)
	}
}

// TestMergedValidation: an empty plan set does not compile, and a shared
// plan holding a node the interpreter cannot instantiate fails to wire.
func TestMergedValidation(t *testing.T) {
	if _, err := ir.CompilePlans(core.DefaultCatalog(), cseOnly); err == nil {
		t.Error("empty plan set should fail")
	}
	pa, pb := twoWindowPlans(t)
	sp, err := ir.CompilePlans(core.DefaultCatalog(), cseOnly, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	sp.Plan.Nodes[len(sp.Plan.Nodes)-1].Kind = "martian"
	if _, err := NewShared(Float64, sp); err == nil {
		t.Error("unknown kind in a shared plan should fail")
	}
}

func TestMergedDistinctParamsNotShared(t *testing.T) {
	cat := core.DefaultCatalog()
	a := core.NewPipeline("a")
	a.AddBranch(core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1)))
	b := core.NewPipeline("b")
	b.AddBranch(core.NewBranch(core.Mic).Add(core.Window(8, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1)))
	pa, err := a.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	m, sp := mustShared(t, Float64, cseOnly, pa, pb)
	// Different window sizes: nothing shared; stat/threshold differ
	// because their inputs differ.
	if sp.Stats.Eliminated() != 0 {
		t.Errorf("eliminated = %d, want 0", sp.Stats.Eliminated())
	}
	if len(m.nodes) != 6 {
		t.Errorf("live nodes = %d, want 6", len(m.nodes))
	}
}

func TestMergedDemandByStageSumsToTotal(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	wantF, wantI, wantMem := ir.Demand(ir.CompileOptions{}, pa, pb)
	stages := ir.DemandByKind(ir.CompileOptions{}, pa, pb)
	if len(stages) == 0 {
		t.Fatal("no stage demand reported")
	}
	var gotF, gotI float64
	var gotMem, nodes int
	for i, sd := range stages {
		if i > 0 && !(stages[i-1].Kind < sd.Kind) {
			t.Errorf("stages not kind-sorted: %q before %q", stages[i-1].Kind, sd.Kind)
		}
		gotF += sd.FloatOpsPerSec
		gotI += sd.IntOpsPerSec
		gotMem += sd.MemoryBytes
		nodes += sd.Nodes
	}
	if gotF != wantF || gotI != wantI || gotMem != wantMem {
		t.Errorf("per-stage sums (%g, %g, %d) != ir.Demand (%g, %g, %d)",
			gotF, gotI, gotMem, wantF, wantI, wantMem)
	}
	// 3 + 3 plan nodes with the window shared once -> 5 distinct
	// instances, exactly as many as the shared machine runs.
	m, _ := mustShared(t, Float64, ir.CompileOptions{}, pa, pb)
	if nodes != 5 || len(m.nodes) != nodes {
		t.Errorf("distinct nodes = %d (machine %d), want 5", nodes, len(m.nodes))
	}
}

func TestMergedDemandByStageDeduplicates(t *testing.T) {
	pa, _ := twoWindowPlans(t)
	once := ir.DemandByKind(ir.CompileOptions{}, pa)
	twice := ir.DemandByKind(ir.CompileOptions{}, pa, pa)
	if len(once) != len(twice) {
		t.Fatalf("duplicate plan changed stage count: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		if once[i] != twice[i] {
			t.Errorf("stage %q demand changed when the plan was listed twice:\nonce:  %+v\ntwice: %+v",
				once[i].Kind, once[i], twice[i])
		}
	}
}

func TestDemandAccumulatorMatchesMergedDemand(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	demand := func(plans ...*core.Plan) (float64, float64, int) {
		return ir.Demand(ir.CompileOptions{}, plans...)
	}
	acc := ir.NewDemandAccumulator(ir.CompileOptions{})
	mf, mi, mmem := acc.Marginal(pa)
	wf, wi, wmem := demand(pa)
	if mf != wf || mi != wi || mmem != wmem {
		t.Errorf("first marginal (%g,%g,%d) != plan demand (%g,%g,%d)", mf, mi, mmem, wf, wi, wmem)
	}
	acc.Commit(pa)
	// The second plan's marginal excludes the shared window prefix, so at
	// least one resource column must come out strictly cheaper.
	mf, mi, mmem = acc.Marginal(pb)
	bf, bi, bmem := demand(pb)
	if mf > bf || mi > bi || mmem > bmem {
		t.Errorf("marginal (%g,%g,%d) exceeds standalone (%g,%g,%d)", mf, mi, mmem, bf, bi, bmem)
	}
	if mf == bf && mi == bi && mmem == bmem {
		t.Errorf("marginal equals standalone — shared prefix not discounted")
	}
	f, i, mem := acc.Commit(pb)
	wf, wi, wmem = demand(pa, pb)
	if f != wf || i != wi || mem != wmem {
		t.Errorf("accumulated (%g,%g,%d) != ir.Demand (%g,%g,%d)", f, i, mem, wf, wi, wmem)
	}
	// Committing a duplicate changes nothing.
	f2, i2, mem2 := acc.Commit(pa)
	if f2 != f || i2 != i || mem2 != mem {
		t.Errorf("duplicate commit changed totals")
	}
}
