package switchsim

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// endpoint is a minimal host stub: it obeys PFC and records data arrivals.
type endpoint struct {
	eng   *sim.Engine
	id    int
	port  *fabric.Port
	got   []*fabric.Packet
	gotAt []sim.Time
	sent  int
}

func newEndpoint(eng *sim.Engine, id int) *endpoint {
	ep := &endpoint{eng: eng, id: id}
	ep.port = &fabric.Port{Eng: eng, Owner: ep, Index: 0}
	return ep
}

func (ep *endpoint) Receive(pkt *fabric.Packet, in *fabric.Port) {
	switch pkt.Type {
	case fabric.Pause:
		in.SetPaused(pkt.Pause.Prio, true, pkt.Pause.Dur)
	case fabric.Resume:
		in.SetPaused(pkt.Pause.Prio, false, 0)
	default:
		ep.got = append(ep.got, pkt)
		ep.gotAt = append(ep.gotAt, ep.eng.Now())
	}
}

func (ep *endpoint) DevID() int { return ep.id }

// dstRouter routes by destination id using a static map.
type dstRouter map[int]int

func (r dstRouter) Route(sw *Switch, pkt *fabric.Packet, in int) Decision {
	return Decision{Out: r[pkt.DstID]}
}

// rig builds host0 -- sw -- host1 with the given rate/delay and config.
type rig struct {
	eng  *sim.Engine
	sw   *Switch
	h    [2]*endpoint
	rate units.Bandwidth
}

func newRig(cfg Config, rate units.Bandwidth, delay sim.Time) *rig {
	eng := sim.NewEngine()
	sw := New(eng, 100, 2, cfg, rng.New(1))
	h0, h1 := newEndpoint(eng, 0), newEndpoint(eng, 1)
	fabric.Connect(h0.port, sw.Port(0), rate, delay)
	fabric.Connect(h1.port, sw.Port(1), rate, delay)
	sw.SetRouter(dstRouter{0: 0, 1: 1})
	return &rig{eng: eng, sw: sw, h: [2]*endpoint{h0, h1}, rate: rate}
}

func (r *rig) send(n int, size int) {
	for i := 0; i < n; i++ {
		r.h[0].port.Enqueue(fabric.NewData(1, uint32(i), size, 0, 1))
	}
}

func TestForwarding(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	r.send(10, 1000)
	r.eng.Run()
	if len(r.h[1].got) != 10 {
		t.Fatalf("delivered %d/10", len(r.h[1].got))
	}
	for i, p := range r.h[1].got {
		if p.Seq != uint32(i) {
			t.Fatalf("out of order at switch: pos %d seq %d", i, p.Seq)
		}
	}
}

func TestBufferAccountingReturnsToZero(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	r.send(50, 1000)
	r.eng.Run()
	if r.sw.SharedUsed() != 0 {
		t.Fatalf("shared pool leak: %d bytes", r.sw.SharedUsed())
	}
	if r.sw.IngressBytes(0) != 0 {
		t.Fatalf("ingress counter leak: %d", r.sw.IngressBytes(0))
	}
	if r.sw.Stats.PeakShared == 0 {
		t.Fatal("peak occupancy not recorded")
	}
}

// slowEgress builds a 2-in-1-out switch whose egress is slower than its
// ingress links, forcing queue buildup.
type slowRig struct {
	eng *sim.Engine
	sw  *Switch
	src [2]*endpoint
	dst *endpoint
}

func newSlowRig(cfg Config, in, out units.Bandwidth) *slowRig {
	eng := sim.NewEngine()
	sw := New(eng, 100, 3, cfg, rng.New(2))
	s0, s1, d := newEndpoint(eng, 0), newEndpoint(eng, 1), newEndpoint(eng, 2)
	fabric.Connect(s0.port, sw.Port(0), in, sim.Microsecond)
	fabric.Connect(s1.port, sw.Port(1), in, sim.Microsecond)
	fabric.Connect(d.port, sw.Port(2), out, sim.Microsecond)
	sw.SetRouter(dstRouter{0: 0, 1: 1, 2: 2})
	return &slowRig{eng: eng, sw: sw, src: [2]*endpoint{s0, s1}, dst: d}
}

func TestPFCPausesUpstream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCThreshold = 20 * 1000
	r := newSlowRig(cfg, 40*units.Gbps, 4*units.Gbps)
	// 100 KB burst from src0 overwhelms the 10x slower egress.
	for i := 0; i < 100; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.Run()
	if r.sw.Stats.PauseSent == 0 {
		t.Fatal("PFC never triggered")
	}
	if r.sw.Stats.ResumeSent == 0 {
		t.Fatal("RESUME never sent")
	}
	if r.src[0].port.Stats.PausedFor == 0 {
		t.Fatal("upstream port never actually paused")
	}
	if len(r.dst.got) != 100 {
		t.Fatalf("lossless invariant violated: delivered %d/100", len(r.dst.got))
	}
	if r.sw.Stats.Dropped != 0 {
		t.Fatalf("drops under PFC: %d", r.sw.Stats.Dropped)
	}
}

func TestNoPFCWhenDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	cfg.PFCThreshold = 20 * 1000
	r := newSlowRig(cfg, 40*units.Gbps, 4*units.Gbps)
	for i := 0; i < 100; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.Run()
	if r.sw.Stats.PauseSent != 0 {
		t.Fatal("PAUSE sent while PFC disabled")
	}
}

func TestDropOnPoolOverflowWithoutPFC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	cfg.BufferBytes = 10 * 1000
	r := newSlowRig(cfg, 40*units.Gbps, units.Gbps)
	for i := 0; i < 200; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.Run()
	if r.sw.Stats.Dropped == 0 {
		t.Fatal("tiny buffer without PFC must drop")
	}
	if len(r.dst.got)+int(r.sw.Stats.Dropped) != 200 {
		t.Fatalf("conservation violated: %d delivered + %d dropped != 200",
			len(r.dst.got), r.sw.Stats.Dropped)
	}
}

func TestPauseRefreshKeepsUpstreamPaused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCThreshold = 10 * 1000
	cfg.PauseDur = 20 * sim.Microsecond
	r := newSlowRig(cfg, 40*units.Gbps, 400*units.Mbps)
	for i := 0; i < 300; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.Run()
	// Draining 300 KB at 400 Mb/s takes 6 ms >> PauseDur, so the pause must
	// have been refreshed many times.
	if r.sw.Stats.PauseSent < 10 {
		t.Fatalf("pause refreshes = %d, want many", r.sw.Stats.PauseSent)
	}
	if len(r.dst.got) != 300 {
		t.Fatalf("delivered %d/300", len(r.dst.got))
	}
}

func TestECNMarking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECNKmin = 5 * 1000
	cfg.ECNKmax = 20 * 1000
	cfg.ECNPmax = 1.0
	cfg.PFCThreshold = 1000 * 1000 // keep PFC out of the way
	r := newSlowRig(cfg, 40*units.Gbps, units.Gbps)
	for i := 0; i < 100; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.Run()
	marked := 0
	for _, p := range r.dst.got {
		if p.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no ECN marks despite deep egress queue")
	}
	// Early packets see an empty queue and must not be marked.
	if r.dst.got[0].CE {
		t.Fatal("first packet marked with empty queue")
	}
}

func TestECNDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECNEnabled = false
	r := newSlowRig(cfg, 40*units.Gbps, units.Gbps)
	for i := 0; i < 100; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.Run()
	for _, p := range r.dst.got {
		if p.CE {
			t.Fatal("CE mark with ECN disabled")
		}
	}
}

// recircRouter recirculates each packet n times before forwarding.
type recircRouter struct {
	base  Router
	n     int
	delay sim.Time
}

func (r *recircRouter) Route(sw *Switch, pkt *fabric.Packet, in int) Decision {
	if pkt.Type == fabric.Data && pkt.Recirc < r.n {
		return Decision{Recirculate: true, RecircDelay: r.delay}
	}
	return r.base.Route(sw, pkt, in)
}

func TestRecirculationDelaysButDelivers(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	r.sw.SetRouter(&recircRouter{base: dstRouter{0: 0, 1: 1}, n: 3, delay: 2 * sim.Microsecond})
	r.send(1, 1000)
	r.eng.Run()
	if len(r.h[1].got) != 1 {
		t.Fatal("recirculated packet lost")
	}
	if r.sw.Stats.Recirced != 3 {
		t.Fatalf("Recirced = %d, want 3", r.sw.Stats.Recirced)
	}
	// Without recirculation: 200ns + 1us (first hop) + 200ns + 1us = 2.4us.
	// With 3 passes of 2us: >= 8.4us.
	if r.h[1].gotAt[0] < 8*sim.Microsecond {
		t.Fatalf("recirculation delay not applied: arrival %v", r.h[1].gotAt[0])
	}
	if r.sw.SharedUsed() != 0 {
		t.Fatal("buffer leak after recirculation")
	}
}

func TestRecirculationKeepsBufferCharged(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	r.sw.SetRouter(&recircRouter{base: dstRouter{0: 0, 1: 1}, n: 1000, delay: 10 * sim.Microsecond})
	r.send(1, 1000)
	r.eng.RunUntil(50 * sim.Microsecond)
	if r.sw.SharedUsed() != 1000 {
		t.Fatalf("recirculating packet not charged: shared=%d", r.sw.SharedUsed())
	}
}

func TestOnControlHookConsumes(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	var seen []*fabric.Packet
	r.sw.OnControl = func(pkt *fabric.Packet, in int) bool {
		seen = append(seen, pkt)
		return true
	}
	cnm := fabric.NewControl(fabric.CNM, 0, 1)
	r.h[0].port.Enqueue(cnm)
	r.eng.Run()
	if len(seen) != 1 {
		t.Fatal("OnControl not invoked for CNM")
	}
	if len(r.h[1].got) != 0 {
		t.Fatal("consumed control frame was still forwarded")
	}
}

func TestControlForwardedWhenNotConsumed(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	ack := fabric.NewControl(fabric.Ack, 0, 1)
	r.h[0].port.Enqueue(ack)
	r.eng.Run()
	if len(r.h[1].got) != 1 || r.h[1].got[0].Type != fabric.Ack {
		t.Fatal("ACK not forwarded")
	}
}

func TestRecentUpstreams(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	r.send(5, 1000)
	r.eng.Run()
	ups := r.sw.RecentUpstreams(1, sim.Second)
	if len(ups) != 1 || ups[0] != 0 {
		t.Fatalf("RecentUpstreams = %v, want [0]", ups)
	}
	// Outside the horizon the entry ages out.
	if got := r.sw.RecentUpstreams(1, 0); len(got) != 0 {
		t.Fatalf("aged upstreams still returned: %v", got)
	}
}

func TestLosslessUnderIncast(t *testing.T) {
	// Two senders at full rate into one egress: with PFC nothing is lost.
	cfg := DefaultConfig()
	cfg.PFCThreshold = 30 * 1000
	cfg.BufferBytes = 200 * 1000
	r := newSlowRig(cfg, 40*units.Gbps, 40*units.Gbps)
	for i := 0; i < 200; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
		r.src[1].port.Enqueue(fabric.NewData(2, uint32(i), 1000, 1, 2))
	}
	r.eng.Run()
	if len(r.dst.got) != 400 {
		t.Fatalf("delivered %d/400 under incast", len(r.dst.got))
	}
	if r.sw.Stats.Dropped != 0 {
		t.Fatalf("%d drops despite PFC", r.sw.Stats.Dropped)
	}
	if r.sw.SharedUsed() != 0 {
		t.Fatal("buffer leak")
	}
}

func TestPauseActiveReflectsState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCThreshold = 5 * 1000
	r := newSlowRig(cfg, 40*units.Gbps, 400*units.Mbps)
	for i := 0; i < 50; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.RunUntil(20 * sim.Microsecond)
	if !r.sw.PauseActive(0) {
		t.Fatal("PauseActive false during congestion")
	}
	r.eng.Run()
	if r.sw.PauseActive(0) {
		t.Fatal("PauseActive true after drain")
	}
}
