package adapt

import (
	"sidewinder/internal/core"
	"sidewinder/internal/interp"
)

// q15Kinds are the stages the interpreter executes on the fixed-point
// substrate in Q15 mode (see interp.newInstance): their float work runs as
// saturating int32 arithmetic, so for costing their float ops are billed
// as integer ops. Spectral stages (FFT chain, tonality, dominant
// frequency) and structural glue stay float and keep their float billing.
var q15Kinds = map[core.AlgorithmKind]bool{
	core.KindMovingAvg:     true,
	core.KindEMA:           true,
	core.KindIIRLowPass:    true,
	core.KindIIRHighPass:   true,
	core.KindLowPass:       true, // Q15 mode substitutes the IIR block backend
	core.KindHighPass:      true,
	core.KindStat:          true,
	core.KindMinThreshold:  true,
	core.KindMaxThreshold:  true,
	core.KindBandThreshold: true,
}

// Demand returns a plan's operation demand under the given execution
// precision: per-second float and integer ops plus instance memory. In
// Q15 mode the fixed-point-capable stages' float work is billed as
// integer work — on an FPU-less device that is the whole point of the
// demotion (software float emulation costs ~100 cycles per op on the
// MSP430; an int op costs 2).
func Demand(plan *core.Plan, prec interp.Precision) (floatOps, intOps float64, memoryBytes int) {
	for i := range plan.Nodes {
		n := &plan.Nodes[i]
		f := n.Cost.FloatOps * n.Rate
		iops := n.Cost.IntOps * n.Rate
		if prec == interp.Q15 && q15Kinds[n.Kind] {
			iops += f
			f = 0
		}
		floatOps += f
		intOps += iops
		memoryBytes += n.Memory
	}
	return floatOps, intOps, memoryBytes
}
