// Package core implements RLB, the paper's contribution: a building block
// that makes existing load-balancing schemes reordering-robust in lossless
// (PFC-enabled) datacenter networks.
//
// RLB has two halves (paper §3):
//
//   - The predicting module (Predictor) runs on every switch. Every Δt it
//     differentiates each ingress queue's length; when the queue is rising
//     fast enough to hit the PFC threshold soon — or has already crossed the
//     warning threshold Qth — it sends a CNM "PFC warning" to the upstream
//     hop, before PFC actually fires. Spine switches relay warnings another
//     hop upstream (Relay) so source leaves learn about congestion two hops
//     away.
//
//   - The rerouting module (Agent, an lb.Policy) runs on leaf switches. It
//     asks the underlying load balancer for its optimal path; if that path
//     carries a live PFC warning it applies Algorithm 1: when the suboptimal
//     path is much slower than the optimal one (delay gap > recirculation
//     delay trc), recirculate the packet and decide again; otherwise take
//     the suboptimal path. Either way the packet never enters a path about
//     to be paused, so it cannot arrive after its successors — eliminating
//     the go-back-N retransmission storms PFC otherwise causes.
package core

import (
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// Params holds all RLB tunables. Zero values are replaced by defaults via
// Normalize.
type Params struct {
	// DeltaT is the queue-derivative sampling interval (paper default: the
	// 2 us link delay).
	DeltaT sim.Time

	// QthFraction positions the PFC-warning threshold Qth as a fraction of
	// the PFC threshold (Fig. 10(a) sweeps 20%-80%). The absolute value is
	// clamped into the conservative range of §3.2.3.
	QthFraction float64

	// WarnExpiry is how long a PFC warning stays live at the upstream
	// switch without being refreshed.
	WarnExpiry sim.Time

	// ReWarnInterval rate-limits CNM generation per ingress port.
	ReWarnInterval sim.Time

	// Trc is the measured delay of one packet recirculation (egress ->
	// ingress pipeline pass).
	Trc sim.Time

	// MaxRecirc bounds recirculations per packet ("recirculation will stop
	// to avoid the endless loop", §3.2.2).
	MaxRecirc int

	// CNMHorizon is how far back "recently forwarded through this egress"
	// reaches when relaying CNMs upstream.
	CNMHorizon sim.Time

	// DisableRecirculation makes Algorithm 1 always reroute (the Fig. 9
	// ablation, "RLB W/O Recir.").
	DisableRecirculation bool

	// DisableOrderGuard lets warned mid-flow packets divert immediately
	// instead of staying behind recently-committed predecessors (ablation:
	// trusts the prediction unconditionally, as the paper's Algorithm 1 is
	// written).
	DisableOrderGuard bool
}

// DefaultParams returns the paper's suggested settings for a fabric with the
// given one-hop link delay.
func DefaultParams(linkDelay sim.Time) Params {
	return Params{
		DeltaT:         2 * sim.Microsecond,
		QthFraction:    0.3,
		WarnExpiry:     30 * sim.Microsecond,
		ReWarnInterval: 10 * sim.Microsecond,
		Trc:            1 * sim.Microsecond,
		MaxRecirc:      8,
		CNMHorizon:     50 * sim.Microsecond,
	}
}

// Normalize fills zero fields with defaults.
func (p Params) Normalize(linkDelay sim.Time) Params {
	d := DefaultParams(linkDelay)
	if p.DeltaT <= 0 {
		p.DeltaT = d.DeltaT
	}
	if p.QthFraction <= 0 {
		p.QthFraction = d.QthFraction
	}
	if p.WarnExpiry <= 0 {
		p.WarnExpiry = d.WarnExpiry
	}
	if p.ReWarnInterval <= 0 {
		p.ReWarnInterval = d.ReWarnInterval
	}
	if p.Trc <= 0 {
		p.Trc = d.Trc
	}
	if p.MaxRecirc <= 0 {
		p.MaxRecirc = d.MaxRecirc
	}
	if p.CNMHorizon <= 0 {
		p.CNMHorizon = d.CNMHorizon
	}
	return p
}

// WarningThresholdRange returns the conservative [lo, hi) range for the PFC
// warning threshold Qth derived in §3.2.3: [⌊d·C⌋, ⌊QPFC − d·C·(n−1)⌋), where
// d is the link delay, C the link capacity, QPFC the PFC threshold, and n the
// incast fan-in the analysis assumes.
func WarningThresholdRange(d sim.Time, c units.Bandwidth, qPFC int, n int) (lo, hi int) {
	dc := units.BytesIn(c, d)
	lo = dc
	hi = qPFC - dc*(n-1)
	return lo, hi
}

// Qth computes the effective warning threshold for a switch: QthFraction of
// the PFC threshold, clamped into the conservative range for n = 2.
func (p Params) Qth(qPFC int, linkDelay sim.Time, c units.Bandwidth) int {
	lo, hi := WarningThresholdRange(linkDelay, c, qPFC, 2)
	q := int(p.QthFraction * float64(qPFC))
	if q < lo {
		q = lo
	}
	if hi > lo && q >= hi {
		q = hi - 1
	}
	return q
}
