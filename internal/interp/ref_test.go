package interp

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/ir"
)

// refPushSample is the per-value reference evaluator the block path is
// pinned against. It feeds one sample through deliver only: quantize at
// ingress in Q15, advance the channel's sequence counter, deliver to every
// channel target. It never touches the consumeBlock/pushBlock dispatch
// that PushSample and PushBlock run on.
func refPushSample(m *Machine, ch core.SensorChannel, v float64) []Wake {
	m.wakes = m.wakes[:0]
	m.off = 0
	if m.prec == Q15 {
		v = dsp.QuantizeQ15(v)
	}
	seq := m.chanSeq[ch]
	m.chanSeq[ch] = seq + 1
	for _, tg := range m.byChan[ch] {
		m.deliver(tg, Value{Seq: seq, Scalar: v})
	}
	sortWakes(m.wakes)
	return m.wakes
}

// soloRef is the multi-plan oracle: one solo NewPrecision machine per plan,
// each driven by refPushSample, with wakes tagged by plan index.
type soloRef struct {
	ms    []*Machine
	wakes []Wake
}

func newSoloRef(t testing.TB, prec Precision, plans []*core.Plan) *soloRef {
	t.Helper()
	r := &soloRef{}
	for _, p := range plans {
		m, err := NewPrecision(p, prec)
		if err != nil {
			t.Fatal(err)
		}
		r.ms = append(r.ms, m)
	}
	return r
}

// push feeds one sample to every solo machine and returns the wakes in
// plan order — the order a shared machine reports one sample's wakes in.
func (r *soloRef) push(ch core.SensorChannel, v float64) []Wake {
	r.wakes = r.wakes[:0]
	for pi, m := range r.ms {
		for _, w := range refPushSample(m, ch, v) {
			w.Plan = pi
			r.wakes = append(r.wakes, w)
		}
	}
	return r.wakes
}

// cseOnly compiles with hash-consing alone: structurally identical
// subgraphs are shared, nothing is folded or fused.
var cseOnly = ir.CompileOptions{NoFold: true, NoFuse: true}

// mustShared compiles plans into one shared plan and wires a machine on it.
func mustShared(t testing.TB, prec Precision, opts ir.CompileOptions, plans ...*core.Plan) (*Machine, *ir.SharedPlan) {
	t.Helper()
	sp, err := ir.CompilePlans(core.DefaultCatalog(), opts, plans...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewShared(prec, sp)
	if err != nil {
		t.Fatal(err)
	}
	return m, sp
}
