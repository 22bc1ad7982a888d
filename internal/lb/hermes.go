package lb

import (
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/flatmap"
	"github.com/rlb-project/rlb/internal/sim"
)

// Hermes (Zhang et al., SIGCOMM 2017) is congestion-aware and cautious: it
// senses path conditions and reroutes a flow only when the move is
// "deliberate" — the current path is sensed congested, a clearly better path
// exists, and the flow has sent enough since its last move that reordering
// risk is low. This implementation senses paths through View.PathDelay (an
// idealized-freshness stand-in for Hermes' end-to-end ECN/RTT telemetry; see
// DESIGN.md), which the paper argues still cannot expose hop-by-hop PFC
// pausing in time.
type Hermes struct {
	// DelayGood and DelayBad classify a path by queueing delay above the
	// base propagation floor.
	DelayGood sim.Time
	DelayBad  sim.Time
	// Gain is the minimum delay improvement that justifies a reroute.
	Gain sim.Time
	// MinBytes is the minimum bytes a flow sends between reroutes.
	MinBytes int
	// MTU converts sequence numbers to byte offsets.
	MTU int

	// flows stores per-flow path state inline in a flat open-addressed
	// table (see internal/flatmap): no per-flow heap entry, one probe per
	// packet.
	flows flatmap.U32[hermesFlow]
}

type hermesFlow struct {
	path        int
	lastMoveSeq uint32
	started     bool
}

// NewHermes returns a Hermes factory. base is the no-load PathDelay floor
// used to scale the good/bad thresholds; pass 0 to use absolute defaults.
func NewHermes(mtu int, base sim.Time) Factory {
	return func() Chooser {
		return &Hermes{
			DelayGood: base + 10*sim.Microsecond,
			DelayBad:  base + 40*sim.Microsecond,
			Gain:      8 * sim.Microsecond,
			MinBytes:  64 * 1000,
			MTU:       mtu,
		}
	}
}

// Name implements Chooser.
func (h *Hermes) Name() string { return "hermes" }

// Choose implements Chooser.
func (h *Hermes) Choose(v View, pkt *fabric.Packet, exclude PathSet) int {
	st := h.flows.Ptr(pkt.FlowID)
	if st == nil {
		st = h.flows.Upsert(pkt.FlowID)
	}
	if !st.started {
		st.started = true
		st.path = h.bestPath(v, pkt, exclude)
		st.lastMoveSeq = pkt.Seq
		return st.path
	}
	cur := st.path
	if exclude.Has(cur) {
		// Caller veto (RLB probing for the suboptimal path): answer with the
		// best allowed path but do not move the flow — the caller's sticky
		// diversion owns consistency if it forwards there (see
		// core.Agent.Pick). Mutating here would desynchronize the flow state
		// from where packets actually went.
		return h.bestPath(v, pkt, exclude)
	}
	curDelay := v.PathDelay(cur, pkt)
	if curDelay < h.DelayBad {
		return cur // path still acceptable: no gratuitous rerouting
	}
	// Flow must have progressed enough since the last move.
	if int(pkt.Seq-st.lastMoveSeq)*h.MTU < h.MinBytes {
		return cur
	}
	others := exclude.With(cur)
	cand := h.bestPath(v, pkt, others)
	if others.Has(cand) {
		// No other path is allowed, so bestPath fell back to a random draw
		// (kept, so the RNG stream does not shift): stay on the current path.
		return cur
	}
	candDelay := v.PathDelay(cand, pkt)
	// Deliberate rerouting: only move for a clear, sensed gain to a path
	// that is actually in good condition.
	if candDelay <= h.DelayGood && curDelay-candDelay > h.Gain {
		st.path = cand
		st.lastMoveSeq = pkt.Seq
	}
	return st.path
}

// Commit implements Committer: when RLB forwards a packet somewhere other
// than the flow's recorded path, move the flow state there so subsequent
// sensing and hysteresis operate on reality.
func (h *Hermes) Commit(pkt *fabric.Packet, path int) {
	st := h.flows.Ptr(pkt.FlowID)
	if st == nil || !st.started || st.path == path {
		return
	}
	st.path = path
	st.lastMoveSeq = pkt.Seq
}

func (h *Hermes) bestPath(v View, pkt *fabric.Packet, exclude PathSet) int {
	n := v.NumPaths()
	best, ok := 0, false
	var bestD sim.Time
	for i := 0; i < n; i++ {
		if exclude.Has(i) {
			continue
		}
		d := v.PathDelay(i, pkt)
		if !ok || d < bestD {
			best, bestD, ok = i, d, true
		}
	}
	if !ok {
		return v.Rng().Intn(n)
	}
	return best
}
