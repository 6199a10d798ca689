package interp

import (
	"fmt"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
)

// This file implements the interpreter's push path and numeric modes.
//
// Block dispatch: PushBlock feeds a whole sensor block through the graph
// with per-block rather than per-sample dispatch. Stages advertise block
// capability through two narrow interfaces. A blockConsumer re-blocks the
// stream (windowing, block filters, Goertzel banks): it consumes a prefix
// of the input up to its next emission boundary, so each emission still
// cascades depth-first immediately — which is what keeps the
// vector-aliasing contract intact (a vector is valid only during the
// cascade of the sample that produced it). A blockMapper is a dense scalar
// stage (moving average, EMA, biquad): it maps the block 1:1 onto a suffix
// of the input, writing into instance-owned scratch that downstream
// consumption finishes with before the call returns. Everything else falls
// back to the per-value scalar loop (deliver). Wakes carry the in-block
// offset of the raw sample that triggered them, and a stable sort by
// (offset, plan) restores exact per-sample ordering, so a PushBlock call is
// observationally identical to pushing its samples one at a time.
// PushSample is the degenerate one-sample block.
//
// Precision: a machine built with NewPrecision(plan, Q15) runs its
// stateful kernels on saturating int32 Q15 arithmetic (internal/dsp/fixed.go),
// quantizing samples at sensor ingress and wake values at egress. Spectral
// stages (FFT, magnitudes, tonality) stay in float64 — the paper's MSP430
// cannot run the FFT chain in real time at all, so Q15 mode substitutes
// the IIR block-filter backend for the FFT one; the float spectral stages
// remain only for plans that insist on them.

// Precision selects the numeric substrate a machine executes on.
type Precision int

const (
	// Float64 is the default full-precision mode.
	Float64 Precision = iota
	// Q15 runs stateful kernels on saturating int32 fixed-point
	// arithmetic with 15 fractional bits, modeling the FPU-less MCU hub.
	Q15
)

// String returns the mode's flag-friendly name.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Q15:
		return "q15"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision converts a name produced by String back into a mode.
func ParsePrecision(name string) (Precision, error) {
	switch name {
	case "float64", "":
		return Float64, nil
	case "q15":
		return Q15, nil
	default:
		return Float64, fmt.Errorf("interp: unknown precision %q (want float64 or q15)", name)
	}
}

// blockConsumer is a re-blocking stage: consumeBlock ingests a prefix of
// src up to (and including) the stage's next emission boundary, returning
// how many samples it consumed and the emission, if the boundary was
// reached. The caller loops until src is drained, cascading each emission
// before feeding more — preserving the per-sample delivery order exactly.
type blockConsumer interface {
	consumeBlock(src []float64) (n int, out Value, ok bool)
}

// blockMapper is a dense scalar stage: pushBlock maps src through the
// stage, returning the emissions and the count of leading src samples that
// produced none (priming). The dense-suffix invariant — out[j] corresponds
// 1:1 to src[skip+j] — is what lets offsets and sequence numbers propagate
// through mapper chains without per-sample bookkeeping. The returned slice
// is instance-owned scratch, valid until the stage's next pushBlock.
type blockMapper interface {
	pushBlock(src []float64) (out []float64, skip int)
}

// PushSample feeds one raw sensor sample: a one-sample PushBlock through
// machine-owned storage, so it allocates nothing. The returned wakes all
// have Off 0 and come in plan order; the slice is machine-owned scratch,
// valid until the next push.
func (m *Machine) PushSample(ch core.SensorChannel, sample float64) []Wake {
	m.one[0] = sample
	return m.PushBlock(ch, m.one[:])
}

// PushBlock feeds a whole block of raw samples from one channel and
// returns the wakes it produced, ordered by (offset, plan) — exactly as a
// loop of one-sample pushes would produce them; Off reports each wake's
// position within the block. The returned slice is machine-owned scratch,
// valid until the next push.
func (m *Machine) PushBlock(ch core.SensorChannel, samples []float64) []Wake {
	m.wakes = m.wakes[:0]
	if len(samples) == 0 {
		return m.wakes
	}
	if m.prec == Q15 {
		// Sensor ingress conversion, into scratch: the caller's samples
		// are never mutated.
		if cap(m.qbuf) < len(samples) {
			m.qbuf = make([]float64, len(samples))
		}
		q := m.qbuf[:len(samples)]
		for i, x := range samples {
			q[i] = dsp.QuantizeQ15(x)
		}
		samples = q
	}
	seq0 := m.chanSeq[ch]
	m.chanSeq[ch] = seq0 + int64(len(samples))
	for _, tg := range m.byChan[ch] {
		m.deliverBlock(tg, samples, seq0, 0)
	}
	// With several targets on the channel, each target's wakes come out
	// batched; sorting restores the per-sample interleaving.
	sortWakes(m.wakes)
	return m.wakes
}

// deliverBlock pushes a block into one node port. src holds the values for
// offsets [off0, off0+len(src)) with sequence numbers starting at seq0.
func (m *Machine) deliverBlock(tg target, src []float64, seq0 int64, off0 int) {
	n := &m.nodes[tg.node]
	switch inst := n.inst.(type) {
	case blockConsumer:
		base := 0
		for base < len(src) {
			k, out, ok := inst.consumeBlock(src[base:])
			m.work = m.work.Add(n.cost.Scale(float64(k)))
			if m.stageStats != nil {
				var em int64
				if ok {
					em = 1
				}
				m.stageStats[tg.node].RecordBlock(n.cost.FloatOps, n.cost.IntOps, int64(k), em)
			}
			base += k
			if !ok {
				continue
			}
			m.off = off0 + base - 1
			m.appendWakes(n, out)
			for _, next := range n.fanout {
				m.deliver(next, out)
			}
		}
	case blockMapper:
		out, skip := inst.pushBlock(src)
		m.work = m.work.Add(n.cost.Scale(float64(len(src))))
		if m.stageStats != nil {
			m.stageStats[tg.node].RecordBlock(n.cost.FloatOps, n.cost.IntOps, int64(len(src)), int64(len(out)))
		}
		if len(out) == 0 {
			return
		}
		if len(n.outPlans) > 0 {
			for j, y := range out {
				m.off = off0 + skip + j
				m.appendWakes(n, Value{Seq: seq0 + int64(skip+j), Scalar: y})
			}
		}
		for _, next := range n.fanout {
			m.deliverBlock(next, out, seq0+int64(skip), off0+skip)
		}
	default:
		for i, x := range src {
			m.off = off0 + i
			m.deliver(tg, Value{Seq: seq0 + int64(i), Scalar: x})
		}
	}
}
