package transport

import (
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/flatmap"
	"github.com/rlb-project/rlb/internal/sim"
)

// receiver enforces in-order delivery for one flow. By default it is the
// go-back-N NIC of the paper: an out-of-order frame is discarded, the
// expected sequence is NAKed (once per gap), and the sender rewinds. Under
// SelectiveRepeat it keeps out-of-order arrivals and the same NAK asks for
// the missing frame only.
type receiver struct {
	h *Host
	f *Flow

	expected uint32
	// lastNakFor suppresses duplicate NAKs for the same gap.
	lastNakFor uint32
	lastCNPAt  sim.Time

	// reseq holds the out-of-order sequence numbers selective repeat keeps
	// (always empty under go-back-N).
	reseq flatmap.U32[struct{}]
}

func newReceiver(h *Host, f *Flow) *receiver {
	return &receiver{h: h, f: f, lastNakFor: ^uint32(0), lastCNPAt: -sim.Second}
}

func (r *receiver) onData(pkt *fabric.Packet) {
	f := r.f
	f.PktsRcvd++
	if f.Done {
		// Straggler or retransmission of a completed flow: re-ACK so a
		// sender whose completion ACK was lost can finish instead of
		// spinning on RTO, and never emit a CNP — throttling a sender with
		// nothing left to send only delays its other flows.
		f.Dups++
		r.h.sendControl(fabric.Ack, f.ID, f.Src, r.expected)
		return
	}
	if pkt.CE {
		r.maybeCNP()
	}
	seq := pkt.Seq
	switch {
	case seq == r.expected:
		r.advance()
	case seq > r.expected:
		// A duplicate of an already-buffered arrival is not new reordering:
		// counting it into OOOPkts/MaxOOD would inflate the paper's OOD
		// metrics with retransmission artifacts.
		if r.h.Cfg.SelectiveRepeat && r.reseq.Has(seq) {
			f.Dups++
			return
		}
		ood := seq - r.expected
		f.OOOPkts++
		if ood > f.MaxOOD {
			f.MaxOOD = ood
		}
		if r.h.OODHook != nil {
			r.h.OODHook(f, ood)
		}
		if r.h.Cfg.SelectiveRepeat {
			// IRN: keep the arrival; the NAK requests only the missing packet.
			r.reseq.Put(seq, struct{}{})
		}
		// Go-back-N discards the arrival. Either way, ask for the expected
		// sequence, once per gap.
		if r.lastNakFor != r.expected {
			r.lastNakFor = r.expected
			r.h.sendControl(fabric.Nak, f.ID, f.Src, r.expected)
		}
	default:
		// Duplicate from a rewind whose original eventually arrived; re-ACK
		// (on the first duplicate, then every AckEvery-th) so the sender's
		// cumulative state advances even when AckEvery == 1.
		f.Dups++
		if (f.Dups-1)%uint64(r.h.Cfg.AckEvery) == 0 {
			r.h.sendControl(fabric.Ack, f.ID, f.Src, r.expected)
		}
	}
}

// advance consumes the expected frame and any buffered successors, emitting
// coalesced ACKs and detecting completion.
func (r *receiver) advance() {
	f := r.f
	r.h.Cfg.Checker.Delivered(r.h.Eng.Now(), f.ID, r.expected)
	r.expected++
	for r.h.Cfg.SelectiveRepeat && r.reseq.Delete(r.expected) {
		r.h.Cfg.Checker.Delivered(r.h.Eng.Now(), f.ID, r.expected)
		r.expected++
	}
	if r.expected >= f.NumPkts {
		f.Done = true
		f.FinishAt = r.h.Eng.Now()
		r.h.sendControl(fabric.Ack, f.ID, f.Src, r.expected)
		if r.h.OnFlowDone != nil {
			r.h.OnFlowDone(f)
		}
		return
	}
	if r.expected%r.h.Cfg.AckEvery == 0 {
		r.h.sendControl(fabric.Ack, f.ID, f.Src, r.expected)
	}
}

// maybeCNP emits a DCQCN congestion notification, rate-limited per flow.
func (r *receiver) maybeCNP() {
	now := r.h.Eng.Now()
	if now-r.lastCNPAt < r.h.Cfg.CC.CNPInterval {
		return
	}
	r.lastCNPAt = now
	r.f.CNPsSent++
	r.h.sendControl(fabric.CNP, r.f.ID, r.f.Src, 0)
}
