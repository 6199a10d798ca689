package sim

import (
	"sidewinder/internal/hub"
	"sidewinder/internal/link"
	"sidewinder/internal/manager"
	"sidewinder/internal/power"
	"sidewinder/internal/telemetry"
)

// This file holds the simulation-side telemetry glue: the strategies and
// the lossy-link replay all deposit energy and emit trace events the same
// way, so the conversions live here once. Everything is nil-safe — with
// telemetry disabled these helpers reduce to a few no-op calls.

// tracePhoneTransitions attaches a transition hook that records every
// phone power-state change as an instant on the stream. A nil stream
// detaches nothing and installs nothing.
func tracePhoneTransitions(ph *power.Phone, s *telemetry.Stream) {
	if s == nil {
		return
	}
	ph.SetTransitionHook(func(from, to power.State) {
		s.InstantStr("phone.state", "power", "state", to.String())
	})
}

// depositPhoneEnergy attributes a finished phone timeline's per-state
// energy to the ledger. The four phone components sum to ph.EnergyMJ()
// exactly (same dwell × draw products).
func depositPhoneEnergy(l *telemetry.Ledger, ph *power.Phone) {
	l.AddEnergyMJ(telemetry.PhoneAsleep, ph.StateEnergyMJ(power.Asleep))
	l.AddEnergyMJ(telemetry.PhoneWaking, ph.StateEnergyMJ(power.WakingUp))
	l.AddEnergyMJ(telemetry.PhoneAwake, ph.StateEnergyMJ(power.Awake))
	l.AddEnergyMJ(telemetry.PhoneFallingAsleep, ph.StateEnergyMJ(power.FallingAsleep))
}

// depositHubEnergy attributes the hub device's energy over the run, and
// converts the interpreter profile's per-stage work into device cycles:
// on the ledger, and as consecutive per-stage spans on the hub stream.
func depositHubEnergy(l *telemetry.Ledger, s *telemetry.Stream, dev hub.Device, hubMJ float64, prof *telemetry.InterpProfile) {
	l.AddEnergyMJ(telemetry.HubDevice, hubMJ)
	prof.DepositCycles(l, dev.Cycles)
	prof.EmitStageSpans(s, dev.Cycles, dev.ClockHz)
}

// depositLinkEnergy splits the wire energy of a testbed run on the
// ledger: ARQ overhead bytes (retransmitted frames plus all ack traffic)
// price the retransmission component, the rest is first-transmission
// occupancy. The two sum to wireMJ.
func depositLinkEnergy(l *telemetry.Ledger, st manager.LinkStats, wireMJ float64) {
	overhead := st.PhoneARQ.OverheadBytes + st.HubARQ.OverheadBytes
	retransMJ := float64(overhead*10) / lossyLinkBaud * link.UARTActiveMW
	l.AddEnergyMJ(telemetry.LinkRetransmit, retransMJ)
	l.AddEnergyMJ(telemetry.LinkWire, wireMJ-retransMJ)
}
