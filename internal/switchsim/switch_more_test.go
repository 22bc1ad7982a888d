package switchsim

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

func TestECNMarkingMonotoneInQueueDepth(t *testing.T) {
	// Marking probability must not decrease with queue depth: measure mark
	// fraction in shallow vs. deep regions of one congested run.
	cfg := DefaultConfig()
	cfg.ECNKmin = 10 * 1000
	cfg.ECNKmax = 100 * 1000
	cfg.ECNPmax = 0.5
	cfg.PFCThreshold = 10 * 1000 * 1000 // out of the way
	r := newSlowRig(cfg, 40*units.Gbps, 2*units.Gbps)
	for i := 0; i < 400; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.eng.Run()
	// First 50 packets saw a shallow queue; the last 100 a deep one.
	early, late := 0, 0
	for i, p := range r.dst.got {
		if i < 50 && p.CE {
			early++
		}
		if i >= 300 && p.CE {
			late++
		}
	}
	if late <= early {
		t.Fatalf("marking not increasing with depth: early=%d late=%d", early, late)
	}
}

func TestControlRecirculationPanics(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	r.sw.SetRouter(RouterFunc(func(sw *Switch, pkt *fabric.Packet, in int) Decision {
		return Decision{Recirculate: true}
	}))
	r.h[0].port.Enqueue(fabric.NewControl(fabric.Ack, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("recirculating a control frame did not panic")
		}
	}()
	r.eng.Run()
}

func TestPFCThresholdBoundary(t *testing.T) {
	// Exactly at the threshold no pause; one byte over pauses.
	cfg := DefaultConfig()
	cfg.PFCThreshold = 5000
	eng := sim.NewEngine()
	sw := New(eng, 100, 2, cfg, rng.New(1))
	up, down := newEndpoint(eng, 0), newEndpoint(eng, 1)
	fabric.Connect(up.port, sw.Port(0), 40*units.Gbps, sim.Microsecond)
	fabric.Connect(down.port, sw.Port(1), 40*units.Gbps, sim.Microsecond)
	sw.SetRouter(dstRouter{0: 0, 1: 1})
	// Pause downstream egress so nothing drains.
	sw.Port(1).SetPaused(fabric.PrioData, true, 0)
	for i := 0; i < 5; i++ {
		up.port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 1))
	}
	eng.RunUntil(100 * sim.Microsecond)
	if sw.Stats.PauseSent != 0 {
		t.Fatalf("paused at exactly the threshold (%d bytes)", sw.IngressBytes(0))
	}
	up.port.Enqueue(fabric.NewData(1, 5, 1, 0, 1))
	eng.RunUntil(200 * sim.Microsecond)
	if sw.Stats.PauseSent == 0 {
		t.Fatal("no pause one byte over the threshold")
	}
	sw.Port(1).SetPaused(fabric.PrioData, false, 0)
	eng.Run()
}

func TestMultipleIngressIndependentAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCThreshold = 10 * 1000
	r := newSlowRig(cfg, 40*units.Gbps, units.Gbps)
	// Only src0 floods; src1 sends a trickle. Only src0's port should pause.
	for i := 0; i < 100; i++ {
		r.src[0].port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 2))
	}
	r.src[1].port.Enqueue(fabric.NewData(2, 0, 1000, 1, 2))
	r.eng.RunUntil(60 * sim.Microsecond)
	if !r.sw.PauseActive(0) {
		t.Fatal("flooding ingress not paused")
	}
	if r.sw.PauseActive(1) {
		t.Fatal("innocent ingress paused (accounting not per-port)")
	}
	r.eng.Run()
}

func TestStatsDataInCount(t *testing.T) {
	r := newRig(DefaultConfig(), 40*units.Gbps, sim.Microsecond)
	r.send(25, 1000)
	r.eng.Run()
	if r.sw.Stats.DataIn != 25 {
		t.Fatalf("DataIn = %d", r.sw.Stats.DataIn)
	}
}
