package transport

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// Regression tests for the ACK/duplicate accounting fixes: tail-ACK loss
// recovery, duplicate re-ACK gating at AckEvery==1, post-completion
// straggler handling, and NAK-loss RTO recovery.

// TestAckEveryOneAcksEveryPacket pins the per-packet ACK cadence: a clean
// 100-packet flow with AckEvery=1 emits exactly one ACK per delivery (99
// intermediate + 1 completion).
func TestAckEveryOneAcksEveryPacket(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	cfg.AckEvery = 1
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	acks := 0
	n.mb.hookAll = func(pkt *fabric.Packet) {
		if pkt.Type == fabric.Ack {
			acks++
		}
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if acks != 100 {
		t.Fatalf("observed %d ACKs, want exactly 100 (one per delivery)", acks)
	}
}

// TestAckEveryOneDuplicatesReAck is the modulo-gating regression: with
// AckEvery == 1 the old `Dups % 1 == 1` condition was never true, so
// duplicates never triggered a re-ACK. Every duplicate must now re-ACK, so
// the ACK count is exactly deliveries (100) plus duplicates.
func TestAckEveryOneDuplicatesReAck(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	cfg.AckEvery = 1
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq == 10 && !pkt.Retransmitted {
			return true, 50 * sim.Microsecond
		}
		return true, 0
	}
	acks := 0
	n.mb.hookAll = func(pkt *fabric.Packet) {
		if pkt.Type == fabric.Ack {
			acks++
		}
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if f.Dups == 0 {
		t.Fatal("scenario produced no duplicates; test is vacuous")
	}
	if want := 100 + int(f.Dups); acks != want {
		t.Fatalf("observed %d ACKs for %d dups, want %d (every duplicate re-ACKed at AckEvery=1)",
			acks, f.Dups, want)
	}
}

// TestTailAckLossRecoversWithOneRTO: when the completion ACK is lost, the
// single RTO retransmission must be re-ACKed by the done receiver so the
// sender finishes. Before the fix the receiver's Done path dropped the
// retransmission silently and the sender retried until the run limit.
func TestTailAckLossRecoversWithOneRTO(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	cfg.AckEvery = 1
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	droppedAck := false
	n.mb.hookCtrl = func(pkt *fabric.Packet) bool {
		if pkt.Type == fabric.Ack && pkt.AckNk.Seq == 100 && !droppedAck {
			droppedAck = true
			return false
		}
		return true
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.RunUntil(20 * sim.Millisecond)
	if !droppedAck {
		t.Fatal("completion ACK was never seen; test is vacuous")
	}
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if f.RTOs != 1 {
		t.Fatalf("RTOs = %d, want exactly 1 (done receiver must re-ACK the retransmission)", f.RTOs)
	}
	if f.Dups == 0 {
		t.Fatal("retransmission to a done receiver must be counted as a duplicate")
	}
	if n.eng.Pending() != 0 {
		t.Fatalf("%d events still pending at 20ms; sender never finished", n.eng.Pending())
	}
}

// TestCompletedFlowStragglerEmitsNoCNP is the post-completion CNP
// regression: a CE-marked straggler of a finished flow must not emit a CNP —
// the sender has nothing left to throttle. Before the fix maybeCNP ran ahead
// of the Done check.
func TestCompletedFlowStragglerEmitsNoCNP(t *testing.T) {
	cfg := DefaultHostConfig()
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq == 50 && !pkt.Retransmitted {
			pkt.CE = true
			return true, 3 * sim.Millisecond
		}
		return true, 0
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if f.FinishAt >= 3*sim.Millisecond {
		t.Fatalf("flow finished at %v; the straggler was not post-completion and the test is vacuous", f.FinishAt)
	}
	if f.CNPsSent != 0 {
		t.Fatalf("CNPsSent = %d, want 0 (straggler of a done flow must not emit CNPs)", f.CNPsSent)
	}
	if f.Dups == 0 {
		t.Fatal("post-completion straggler must be counted as a duplicate")
	}
}

// TestLostNakRecoveredByRTO: a dropped data frame whose NAK is also lost
// (NAKs are sent once per gap) leaves the sender with no feedback; the RTO
// must rewind and recover the flow.
func TestLostNakRecoveredByRTO(t *testing.T) {
	cfg := DefaultHostConfig()
	cfg.CCEnabled = false
	n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
	droppedData, droppedNak := false, false
	n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
		if pkt.Seq == 10 && !droppedData {
			droppedData = true
			return false, 0
		}
		return true, 0
	}
	n.mb.hookCtrl = func(pkt *fabric.Packet) bool {
		if pkt.Type == fabric.Nak && !droppedNak {
			droppedNak = true
			return false
		}
		return true
	}
	f := n.h1.StartFlow(1, n.h2, 100*1000)
	n.eng.Run()
	if !droppedNak {
		t.Fatal("no NAK was dropped; test is vacuous")
	}
	if !f.Done {
		t.Fatal("flow did not recover from the lost NAK")
	}
	if f.RTOs != 1 {
		t.Fatalf("RTOs = %d, want 1", f.RTOs)
	}
	if f.Retrans == 0 || f.Dups == 0 {
		t.Fatalf("rewind should retransmit past delivered data: retrans=%d dups=%d", f.Retrans, f.Dups)
	}
}

// TestDupAccountingAcrossModes pins the duplicate/OOO bookkeeping invariants
// in both receiver modes, go-back-N and selective repeat, under the same
// reordering disturbance.
func TestDupAccountingAcrossModes(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*HostConfig)
		// delay applied to the original copy of sequence 10
		delay sim.Time
		check func(t *testing.T, f *Flow)
	}{
		{
			name:  "go-back-n",
			cfg:   func(c *HostConfig) {},
			delay: 50 * sim.Microsecond,
			check: func(t *testing.T, f *Flow) {
				// Every received frame is delivered, discarded OOO, or a dup.
				if f.PktsRcvd != uint64(f.NumPkts)+f.OOOPkts+f.Dups {
					t.Fatalf("PktsRcvd=%d != NumPkts+OOOPkts+Dups=%d",
						f.PktsRcvd, uint64(f.NumPkts)+f.OOOPkts+f.Dups)
				}
				if f.Dups == 0 {
					t.Fatal("delayed original must arrive as a duplicate")
				}
			},
		},
		{
			name:  "selective-repeat",
			cfg:   func(c *HostConfig) { c.SelectiveRepeat = true },
			delay: 50 * sim.Microsecond,
			check: func(t *testing.T, f *Flow) {
				// IRN retransmits only the missing packet; the delayed
				// original is the one duplicate.
				if f.Retrans != 1 {
					t.Fatalf("Retrans=%d, want 1 (only the NAKed packet)", f.Retrans)
				}
				if f.Dups != 1 {
					t.Fatalf("Dups=%d, want 1 (the delayed original)", f.Dups)
				}
				if f.PktsRcvd != uint64(f.NumPkts)+f.Dups {
					t.Fatalf("PktsRcvd=%d != NumPkts+Dups=%d", f.PktsRcvd, uint64(f.NumPkts)+f.Dups)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultHostConfig()
			cfg.CCEnabled = false
			tc.cfg(&cfg)
			n := newNet2(cfg, 10*units.Gbps, sim.Microsecond)
			n.mb.hook = func(pkt *fabric.Packet) (bool, sim.Time) {
				if pkt.Seq == 10 && !pkt.Retransmitted {
					return true, tc.delay
				}
				return true, 0
			}
			f := n.h1.StartFlow(1, n.h2, 100*1000)
			n.eng.Run()
			if !f.Done {
				t.Fatal("flow did not complete")
			}
			if f.OOOPkts == 0 {
				t.Fatal("disturbance produced no OOO arrivals; test is vacuous")
			}
			tc.check(t, f)
		})
	}
}
