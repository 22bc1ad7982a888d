package transport

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

func TestAckCoalescing(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	cfg.AckEvery = 16
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	acks := 0
	n.mb.hookAll = func(pkt *fabric.Packet) {
		if pkt.Type == fabric.Ack {
			acks++
		}
	}
	f := n.h1.StartFlow(1, n.h2, 160*1000) // 160 packets
	n.eng.Run()
	if !f.Done {
		t.Fatal("incomplete")
	}
	// 160/16 = 10 coalesced plus the final ACK.
	if acks < 10 || acks > 12 {
		t.Fatalf("ACK count = %d, want ~11", acks)
	}
}

func TestGoBackNWithCongestionControl(t *testing.T) {
	cfg := DefaultHostConfig() // CC on
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq%31 == 7 && !pkt.Retransmitted {
			return true, 25 * sim.Microsecond
		}
		if pkt.Seq%17 == 3 {
			pkt.CE = true
		}
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 400*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow with CC + reordering incomplete")
	}
	if f.CNPsSent == 0 || f.Retrans == 0 {
		t.Fatalf("expected both CNPs (%d) and retransmissions (%d)", f.CNPsSent, f.Retrans)
	}
}

func TestManyFlowsBothDirections(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	var flows []*Flow
	for i := 0; i < 10; i++ {
		flows = append(flows, n.h1.StartFlow(uint32(1+i), n.h2, 30*1000))
		flows = append(flows, n.h2.StartFlow(uint32(100+i), n.h1, 30*1000))
	}
	n.eng.Run()
	for i, f := range flows {
		if !f.Done {
			t.Fatalf("flow %d incomplete", i)
		}
	}
}

func TestFCTHelpers(t *testing.T) {
	f := &Flow{Size: 1000, StartAt: sim.Millisecond, FinishAt: 3 * sim.Millisecond, Done: true}
	if f.FCT() != 2*sim.Millisecond {
		t.Fatalf("FCT = %v", f.FCT())
	}
	if f.GoodputBytes() != 1000 {
		t.Fatal("GoodputBytes for done flow")
	}
	f.Done = false
	if f.GoodputBytes() != 0 {
		t.Fatal("GoodputBytes for incomplete flow should be 0")
	}
}

func TestDuplicateReACKAdvancesSender(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	// Delay a packet: after rewind its original arrives as a duplicate; the
	// flow must still terminate promptly (re-ACKs keep una moving).
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq == 50 && !pkt.Retransmitted {
			return true, 40 * sim.Microsecond
		}
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("incomplete")
	}
	if f.Dups == 0 {
		t.Fatal("expected duplicate arrivals")
	}
}
