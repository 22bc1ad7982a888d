package core

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
)

// flowPkt builds a packet of an ongoing flow.
func flowPkt(flow uint32, seq uint32, dst int) *fabric.Packet {
	return fabric.NewData(flow, seq, 1000, 0, dst)
}

func TestOrderGuardKeepsActiveFlowInPlace(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	v.delays = []sim.Time{20 * sim.Microsecond, 21 * sim.Microsecond, 22 * sim.Microsecond, 23 * sim.Microsecond}
	// Establish the flow on path 0.
	if d := a.Pick(v, flowPkt(1, 0, 5)); d.Uplink != 0 {
		t.Fatalf("setup: flow not on path 0: %+v", d)
	}
	// Warning appears; next packet follows 1us later — predecessors are
	// still in flight, so the packet must stay on path 0.
	warn(a, 0, -1, v.now)
	v.now += sim.Microsecond
	d := a.Pick(v, flowPkt(1, 1, 5))
	if d.Recirculate || d.Uplink != 0 {
		t.Fatalf("order guard violated: %+v", d)
	}
	if a.Stats.OrderStays != 1 {
		t.Fatalf("OrderStays = %d", a.Stats.OrderStays)
	}
}

func TestOrderGuardExpiresAfterPathDelay(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	v.delays = []sim.Time{5 * sim.Microsecond, 6 * sim.Microsecond, 7 * sim.Microsecond, 8 * sim.Microsecond}
	a.Pick(v, flowPkt(1, 0, 5))
	// Well past the path delay: predecessors delivered; divert is safe.
	v.now += 50 * sim.Microsecond
	warn(a, 0, -1, v.now)
	d := a.Pick(v, flowPkt(1, 1, 5))
	if !d.Recirculate && d.Uplink == 0 {
		t.Fatalf("stale flow still guarded: %+v", d)
	}
}

func TestOrderGuardAblation(t *testing.T) {
	a := testAgent(4)
	a.Params.DisableOrderGuard = true
	v := newFakeView(4)
	v.delays = []sim.Time{5 * sim.Microsecond, 6 * sim.Microsecond, 7 * sim.Microsecond, 8 * sim.Microsecond}
	a.Pick(v, flowPkt(1, 0, 5))
	warn(a, 0, -1, v.now)
	v.now += sim.Microsecond
	d := a.Pick(v, flowPkt(1, 1, 5))
	if d.Uplink == 0 && !d.Recirculate {
		t.Fatal("ablated guard still holding flows")
	}
}

func TestStickyDiversionFollowsAndRetires(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	v.delays = []sim.Time{5 * sim.Microsecond, 6 * sim.Microsecond, 7 * sim.Microsecond, 8 * sim.Microsecond}
	warn(a, 0, -1, v.now)
	// New flow: path 0 warned, gap small -> diverted to 1.
	d := a.Pick(v, flowPkt(1, 0, 5))
	if d.Uplink != 1 {
		t.Fatalf("expected diversion to 1, got %+v", d)
	}
	// While the warning lives, subsequent packets follow the diversion.
	v.now += 2 * sim.Microsecond
	if d := a.Pick(v, flowPkt(1, 1, 5)); d.Uplink != 1 {
		t.Fatalf("diversion not sticky: %+v", d)
	}
	if a.Stats.DivertSticky == 0 {
		t.Fatal("DivertSticky not counted")
	}
	// Warning expires and in-flight packets drain: diversion retires back to
	// the base scheme's choice.
	v.now += a.Params.WarnExpiry + 20*sim.Microsecond
	if d := a.Pick(v, flowPkt(1, 2, 5)); d.Uplink != 0 {
		t.Fatalf("diversion did not retire: %+v", d)
	}
}

func TestWaitChainForcesRecirculation(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	// Gap beyond the whole wait budget -> first packet recirculates.
	v.delays = []sim.Time{sim.Microsecond, 500 * sim.Microsecond, 500 * sim.Microsecond, 500 * sim.Microsecond}
	warn(a, 0, -1, v.now)
	d := a.Pick(v, flowPkt(1, 0, 5))
	if !d.Recirculate {
		t.Fatalf("lead packet should recirculate: %+v", d)
	}
	// A flow-mate deciding while the lead is inside the loop must wait too.
	v.now += 200 * sim.Nanosecond
	d2 := a.Pick(v, flowPkt(1, 1, 5))
	if !d2.Recirculate {
		t.Fatalf("follower overtook recirculating lead: %+v", d2)
	}
	if a.Stats.OrderRecircs == 0 {
		t.Fatal("OrderRecircs not counted")
	}
	// After the lead's exit time the chain is over.
	v.now += 2 * a.Params.Trc
	d3 := a.Pick(v, flowPkt(1, 2, 5))
	if d3.Recirculate && a.Stats.OrderRecircs > 1 {
		t.Fatalf("wait chain did not end: %+v", d3)
	}
}

func TestRecircExhaustionSuppressesFutureWaits(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	v.delays = []sim.Time{sim.Microsecond, 25 * sim.Microsecond, 26 * sim.Microsecond, 27 * sim.Microsecond}
	warn(a, 0, -1, v.now)
	// A packet returning with its budget exhausted diverts...
	p := flowPkt(1, 0, 5)
	p.Recirc = a.Params.MaxRecirc
	if d := a.Pick(v, p); d.Recirculate {
		t.Fatal("exhausted packet recirculated")
	}
	// ...and flow-mates skip recirculation for a while (they divert too;
	// sticky diversion serves them the same path).
	v.now += 40 * sim.Microsecond // past PathDelay so order guard lapses
	warn(a, 0, -1, v.now)
	before := a.Stats.Recircs
	a.Pick(v, flowPkt(1, 1, 5))
	if a.Stats.Recircs != before {
		t.Fatal("recirculation not suppressed after exhaustion")
	}
}

// committingChooser records Commit calls.
type committingChooser struct {
	rankedChooser
	committed []int
}

func (c *committingChooser) Commit(pkt *fabric.Packet, path int) {
	c.committed = append(c.committed, path)
}

func TestAgentCommitsFinalDecision(t *testing.T) {
	base := &committingChooser{rankedChooser: rankedChooser{order: seq(4)}}
	a := NewAgent(base, Params{}, 0, 4, func(h int) int { return h / 10 })
	v := newFakeView(4)
	warn(a, 0, -1, v.now)
	d := a.Pick(v, flowPkt(1, 0, 5))
	if d.Recirculate {
		t.Fatalf("unexpected recirculation: %+v", d)
	}
	if len(base.committed) != 1 || base.committed[0] != d.Uplink {
		t.Fatalf("commit calls = %v, decision %d", base.committed, d.Uplink)
	}
}

var _ lb.Committer = (*committingChooser)(nil)
