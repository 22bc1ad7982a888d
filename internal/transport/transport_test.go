package transport

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// middlebox sits between two hosts and forwards frames, optionally mangling
// data frames via hook (delay, drop) to exercise recovery paths.
type middlebox struct {
	eng   *sim.Engine
	ports [2]*fabric.Port
	// hook returns (forward, extraDelay). forward=false drops the frame.
	hook func(pkt *fabric.Packet) (bool, sim.Time)
	// hookCtrl filters control frames (Ack/Nak/CNP); false drops the frame.
	hookCtrl func(pkt *fabric.Packet) bool
	// hookAll observes every frame in both directions (control included).
	hookAll func(pkt *fabric.Packet)
}

func newMiddlebox(eng *sim.Engine) *middlebox {
	m := &middlebox{eng: eng}
	m.ports[0] = &fabric.Port{Eng: eng, Owner: m, Index: 0}
	m.ports[1] = &fabric.Port{Eng: eng, Owner: m, Index: 1}
	return m
}

func (m *middlebox) DevID() int { return 999 }

func (m *middlebox) Receive(pkt *fabric.Packet, in *fabric.Port) {
	if m.hookAll != nil {
		m.hookAll(pkt)
	}
	out := m.ports[1-in.Index]
	if pkt.Type == fabric.Data && m.hook != nil {
		fwd, delay := m.hook(pkt)
		if !fwd {
			return
		}
		if delay > 0 {
			m.eng.After(delay, func() { out.Enqueue(pkt) })
			return
		}
	}
	if pkt.Type != fabric.Data && m.hookCtrl != nil && !m.hookCtrl(pkt) {
		return
	}
	out.Enqueue(pkt)
}

type net2 struct {
	eng    *sim.Engine
	h1, h2 *Host
	mb     *middlebox
}

func newNet2(cfg HostConfig, rate units.Bandwidth, delay sim.Time) *net2 {
	eng := sim.NewEngine()
	h1 := NewHost(eng, 1, cfg)
	h2 := NewHost(eng, 2, cfg)
	mb := newMiddlebox(eng)
	fabric.Connect(h1.NIC(), mb.ports[0], rate, delay)
	fabric.Connect(h2.NIC(), mb.ports[1], rate, delay)
	return &net2{eng: eng, h1: h1, h2: h2, mb: mb}
}

func TestSingleFlowCompletes(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	f := n.h1.StartFlow(1, n.h2, 100*1000) // 100 packets
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	// 100 KB at 10 Gb/s = 80 us serialization + ~2x(2 hops latency).
	if fct := f.FCT(); fct < 80*sim.Microsecond || fct > 120*sim.Microsecond {
		t.Fatalf("FCT = %v, want ~80-120us", fct)
	}
	if f.Retrans != 0 || f.OOOPkts != 0 {
		t.Fatalf("clean path produced retrans=%d ooo=%d", f.Retrans, f.OOOPkts)
	}
	if f.PktsSent != 100 || f.PktsRcvd != 100 {
		t.Fatalf("sent=%d rcvd=%d", f.PktsSent, f.PktsRcvd)
	}
}

func TestReorderingTriggersGoBackN(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	// Hold packet 10 for 50us: packets 11.. arrive first -> NAK(10) -> rewind.
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq == 10 && !pkt.Retransmitted {
			return true, 50 * sim.Microsecond
		}
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete after reordering")
	}
	if f.OOOPkts == 0 {
		t.Fatal("no out-of-order packets recorded")
	}
	if f.Retrans == 0 {
		t.Fatal("go-back-N did not retransmit")
	}
	if f.MaxOOD == 0 {
		t.Fatal("MaxOOD not recorded")
	}
	if f.Dups == 0 {
		t.Fatal("delayed original should have arrived as duplicate")
	}
}

func TestOODHookObservesDegrees(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq == 5 && !pkt.Retransmitted {
			return true, 30 * sim.Microsecond
		}
		return true, 0
	}
	var oods []uint32
	n.h2.OODHook = func(f *Flow, ood uint32) { oods = append(oods, ood) }
	f := n.h1.StartFlow(1, n.h2, 50*1000)
	n.eng.Run()
	if !f.Done || len(oods) == 0 {
		t.Fatalf("done=%v hooks=%d", f.Done, len(oods))
	}
	// First OOO arrival is seq 6 when 5 is expected: degree 1.
	if oods[0] != 1 {
		t.Fatalf("first OOD = %d, want 1", oods[0])
	}
}

func TestDropRecoveredByNak(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	dropped := false
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq == 20 && !dropped {
			dropped = true
			return false, 0
		}
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow did not recover from mid-flow drop")
	}
	if f.Retrans == 0 {
		t.Fatal("drop must cause retransmission")
	}
}

func TestTailDropRecoveredByRTO(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	drops := 0
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		// Drop the very last packet once; no later packet can trigger a NAK.
		if pkt.Seq == 99 && drops == 0 {
			drops++
			return false, 0
		}
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("tail drop not recovered")
	}
	if f.RTOs == 0 {
		t.Fatal("RTO should have fired")
	}
}

func TestCNPReducesRate(t *testing.T) {
	cfg := DefaultHostConfig()
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	// Mark CE on every data frame; receiver must emit rate-limited CNPs.
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		pkt.CE = true
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 2*1000*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if f.CNPsSent == 0 {
		t.Fatal("no CNPs for CE-marked traffic")
	}
	// With constant CE marking, the flow must finish much slower than line
	// rate: line-rate FCT would be ~1.6ms.
	if f.FCT() < 3*sim.Millisecond {
		t.Fatalf("DCQCN did not throttle: FCT=%v, CNPs=%d", f.FCT(), f.CNPsSent)
	}
}

func TestCNPRateLimited(t *testing.T) {
	cfg := DefaultHostConfig()
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		pkt.CE = true
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 1000*1000)
	n.eng.Run()
	dur := f.FinishAt - f.StartAt
	maxCNPs := uint64(dur/cfg.CC.CNPInterval) + 2
	if f.CNPsSent > maxCNPs {
		t.Fatalf("CNPs=%d exceed one per interval (max %d)", f.CNPsSent, maxCNPs)
	}
}

func TestConcurrentFlowsShareNIC(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	f1 := n.h1.StartFlow(1, n.h2, 200*1000)
	f2 := n.h1.StartFlow(2, n.h2, 200*1000)
	f3 := n.h2.StartFlow(3, n.h1, 200*1000) // reverse direction
	n.eng.Run()
	if !f1.Done || !f2.Done || !f3.Done {
		t.Fatalf("done: %v %v %v", f1.Done, f2.Done, f3.Done)
	}
	// Two same-direction flows share 10G: each should take ~2x solo time.
	solo := 160 * sim.Microsecond
	if f1.FCT() < solo || f2.FCT() < solo {
		t.Fatalf("sharing unrealistically fast: %v %v", f1.FCT(), f2.FCT())
	}
}

func TestNICBackpressureBoundsQueue(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	cfg.NICQueueCap = 20 * 1000
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	// Pause the host NIC for a long time; the sender must stop pacing
	// rather than queueing the whole flow.
	n.h1.NIC().SetPaused(fabric.PrioData, true, 0)
	n.h1.StartFlow(1, n.h2, 1000*1000)
	n.eng.RunUntil(sim.Millisecond)
	q := n.h1.NIC().QueuedBytes(fabric.PrioData)
	if q > cfg.NICQueueCap+2000 {
		t.Fatalf("NIC queue %d exceeds cap %d", q, cfg.NICQueueCap)
	}
	n.h1.NIC().SetPaused(fabric.PrioData, false, 0)
	n.eng.Run()
}

func TestOnFlowDoneFires(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	var doneFlows []uint32
	n.h2.OnFlowDone = func(f *Flow) { doneFlows = append(doneFlows, f.ID) }
	n.h1.StartFlow(7, n.h2, 10*1000)
	n.eng.Run()
	if len(doneFlows) != 1 || doneFlows[0] != 7 {
		t.Fatalf("OnFlowDone = %v", doneFlows)
	}
}

func TestTinyFlowOnePacket(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	f := n.h1.StartFlow(1, n.h2, 100) // < 1 MTU
	n.eng.Run()
	if !f.Done || f.NumPkts != 1 {
		t.Fatalf("done=%v numPkts=%d", f.Done, f.NumPkts)
	}
}

func TestFlowStatsConsistency(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq%17 == 3 && !pkt.Retransmitted {
			return true, 20 * sim.Microsecond
		}
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 300*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("not done")
	}
	if f.PktsSent < uint64(f.NumPkts) {
		t.Fatalf("sent %d < NumPkts %d", f.PktsSent, f.NumPkts)
	}
	if f.PktsSent != uint64(f.NumPkts)+f.Retrans {
		t.Fatalf("PktsSent=%d != NumPkts+Retrans=%d", f.PktsSent, uint64(f.NumPkts)+f.Retrans)
	}
}

func TestZeroSizeFlowPanics(t *testing.T) {
	cfg := DefaultHostConfig()
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size flow did not panic")
		}
	}()
	n.h1.StartFlow(1, n.h2, 0)
}
