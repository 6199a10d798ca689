// Package interp implements the sensor-hub runtime (paper §3.5): an
// interpreter that executes bound wake-up conditions over streaming sensor
// data. It mirrors the paper's C implementation: every algorithm instance
// owns a per-instance data structure, the interpreter feeds incoming sensor
// samples to the appropriate instances, and an instance that produces a
// result sets a hasResult flag that forwards the value to the next
// instance. A value reaching OUT signals that the main processor should be
// woken up.
//
// One Machine runs either a single plan (NewPrecision) or several plans
// compiled into one shared graph (NewShared, the paper's §7 merging
// extension): in both cases each node runs once per input and fans out to
// every consumer, and each node feeding OUT carries the indices of the
// plans it satisfies.
//
// The interpreter also meters the work it performs (in the abstract
// float/int operation units of the catalog cost model) so device models can
// translate executed work into energy and real-time feasibility.
package interp

import (
	"fmt"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/ir"
	"sidewinder/internal/telemetry"
)

// Value is one emission flowing over a pipeline edge: a scalar or a vector
// block, tagged with the emitting node's sequence number. Sequence numbers
// let aggregation algorithms synchronize branches without timestamps.
//
// Vector contents are owned by the emitting instance, which reuses the
// backing array across emissions: a Vector is valid only for the delivery
// cascade of the sample that produced it, and consumers must copy it to
// retain it (and must never mutate it).
type Value struct {
	Seq    int64
	Scalar float64
	Vector []float64 // nil for scalar edges
}

// Wake is delivered when a wake-up condition is satisfied: the final
// admission-control stage emitted a value to OUT (paper §3.3).
type Wake struct {
	// Off is the offset, within the pushed block, of the raw sample whose
	// delivery triggered the wake (always 0 for PushSample).
	Off int
	// Plan is the index of the satisfied plan: its position in the
	// shared plan's sources, or 0 on a single-plan machine.
	Plan int
	// NodeID is the plan node that fed OUT.
	NodeID int
	// Value is the admitted scalar.
	Value float64
	// Seq is the emission sequence number of the final node.
	Seq int64
}

// instance is one running algorithm. Push consumes an input on the given
// port and reports the produced value, if any (the hasResult flag of the
// paper's runtime). The instance sets the output's Seq: sample-synchronous
// and conditional algorithms preserve the input sequence (so aggregators
// downstream can join branches emission-for-emission), while re-blocking
// algorithms (windowing, block filters) start a fresh sequence domain.
type instance interface {
	Push(port int, v Value) (Value, bool)
	Reset()
}

// target routes an emission to one input port of a downstream node.
type target struct {
	node int // index into Machine.nodes
	port int
}

// node is one algorithm instance wired into the machine's graph.
type node struct {
	inst instance
	cost core.CostEstimate
	// kind is the algorithm kind, kept for per-stage telemetry.
	kind core.AlgorithmKind
	// planID is the node's ID in the executed plan, reported in wakes.
	planID int
	// outPlans lists the plans for which this node feeds OUT.
	outPlans []int
	// fanout routes emissions to downstream nodes.
	fanout []target
}

// Machine executes one or more bound wake-up conditions as one graph.
type Machine struct {
	nodes   []node
	byChan  map[core.SensorChannel][]target
	chanSeq map[core.SensorChannel]int64
	prec    Precision
	work    core.CostEstimate

	// off is the offset (within the block being pushed) of the raw sample
	// whose delivery cascade is currently running; wakes record it.
	off   int
	wakes []Wake
	// qbuf is the Q15 ingress scratch: PushBlock quantizes into it rather
	// than mutating the caller's samples. one backs PushSample's
	// one-sample block, so the per-sample path allocates nothing.
	qbuf []float64
	one  [1]float64

	// stageStats, when non-nil, holds one pre-interned telemetry handle
	// per node (parallel to nodes), so the delivery loop attributes work
	// per stage kind with plain field arithmetic — no map lookups, no
	// allocation, nothing when telemetry is disabled. Work on a shared
	// node is recorded once: the profile sees the deduplicated execution
	// the hub actually pays for.
	stageStats []*telemetry.StageStat
}

// New builds a machine for the plan in the default float64 precision. The
// plan must come from core.Pipeline.Validate or ir.Bind; New trusts its
// structural invariants but still fails cleanly on an algorithm kind it
// cannot instantiate.
func New(plan *core.Plan) (*Machine, error) { return NewPrecision(plan, Float64) }

// NewPrecision builds a machine executing one plan in the given precision.
func NewPrecision(plan *core.Plan, prec Precision) (*Machine, error) {
	return wire(plan, []int{plan.OutputNode()}, prec)
}

// NewShared builds a machine from a DAG-compiled shared plan
// (ir.CompilePlans): the compile pass has already deduplicated
// structurally identical subgraphs, folded redundant stages and fused
// threshold chains, so construction is a straight wiring of the lowered
// nodes. Each wake's Plan is the satisfied plan's index in sp.Sources.
// All plans share the precision: shared nodes must compute identical
// values for every consumer.
func NewShared(prec Precision, sp *ir.SharedPlan) (*Machine, error) {
	outs := make([]int, len(sp.Outputs))
	for i, o := range sp.Outputs {
		outs[i] = o.Out
	}
	return wire(sp.Plan, outs, prec)
}

// wire instantiates every node of a topologically ordered plan and routes
// its edges; outs[i] is the ID of the node that feeds plan i's OUT.
func wire(plan *core.Plan, outs []int, prec Precision) (*Machine, error) {
	m := &Machine{
		nodes:   make([]node, len(plan.Nodes)),
		byChan:  make(map[core.SensorChannel][]target),
		chanSeq: make(map[core.SensorChannel]int64),
		prec:    prec,
	}
	for i := range plan.Nodes {
		n := &plan.Nodes[i]
		inst, err := newInstance(n, prec)
		if err != nil {
			return nil, fmt.Errorf("interp: node %d (%s): %w", n.ID, n.Kind, err)
		}
		m.nodes[i] = node{inst: inst, cost: n.Cost, kind: n.Kind, planID: n.ID}
		// Inputs reference earlier nodes only, so the upstream entries
		// already exist.
		for port, ref := range n.Inputs {
			tg := target{node: i, port: port}
			if ref.FromChannel() {
				m.byChan[ref.Channel] = append(m.byChan[ref.Channel], tg)
			} else {
				m.nodes[ref.Node-1].fanout = append(m.nodes[ref.Node-1].fanout, tg)
			}
		}
	}
	for pi, out := range outs {
		m.nodes[out-1].outPlans = append(m.nodes[out-1].outPlans, pi)
	}
	return m, nil
}

// SetProfile attaches a telemetry profile: subsequent execution is
// attributed per stage kind into the profile's StageStats. The handles are
// interned once here, keeping the push paths at 0 allocs/op. A nil profile
// detaches instrumentation.
func (m *Machine) SetProfile(p *telemetry.InterpProfile) {
	if p == nil {
		m.stageStats = nil
		return
	}
	m.stageStats = make([]*telemetry.StageStat, len(m.nodes))
	for i := range m.nodes {
		m.stageStats[i] = p.Stage(string(m.nodes[i].kind))
	}
}

// deliver pushes a value into one node port and propagates any emission.
func (m *Machine) deliver(tg target, v Value) {
	n := &m.nodes[tg.node]
	m.work = m.work.Add(n.cost)
	out, ok := n.inst.Push(tg.port, v)
	if m.stageStats != nil {
		m.stageStats[tg.node].Record(n.cost.FloatOps, n.cost.IntOps, ok)
	}
	if !ok {
		return
	}
	m.appendWakes(n, out)
	for _, next := range n.fanout {
		m.deliver(next, out)
	}
}

// appendWakes records the node's wakes (one per plan it feeds OUT for) at
// the current block offset, snapping the admitted value onto the Q15 grid
// in fixed-point mode (wake egress conversion: downstream consumers see
// what the MCU would report).
func (m *Machine) appendWakes(n *node, out Value) {
	if len(n.outPlans) == 0 {
		return
	}
	val := out.Scalar
	if m.prec == Q15 {
		val = dsp.QuantizeQ15(val)
	}
	for _, pi := range n.outPlans {
		m.wakes = append(m.wakes, Wake{Off: m.off, Plan: pi, NodeID: n.planID, Value: val, Seq: out.Seq})
	}
}

// sortWakes orders wakes by (offset, plan), stably. Wakes are rare, so
// the insertion sort is a no-op almost always and, unlike sort.Slice,
// never allocates.
func sortWakes(ws []Wake) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && wakeLess(ws[j], ws[j-1]); j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func wakeLess(a, b Wake) bool {
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	return a.Plan < b.Plan
}

// Work returns the cumulative work executed since construction, in
// catalog cost units.
func (m *Machine) Work() core.CostEstimate { return m.work }

// Reset restores every algorithm instance to its initial state and clears
// sequence counters; the work meter is left untouched.
func (m *Machine) Reset() {
	for i := range m.nodes {
		m.nodes[i].inst.Reset()
	}
	clear(m.chanSeq)
}
