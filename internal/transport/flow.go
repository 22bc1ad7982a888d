// Package transport implements a RoCEv2-style reliable transport over the
// simulated fabric: rate-paced senders governed by DCQCN, and receivers that
// enforce in-order delivery with go-back-N retransmission, exactly the
// recovery model the paper attributes to lossless DCN NICs (§2.1.2): an
// out-of-order packet is discarded and a NAK asks the sender to rewind.
package transport

import "github.com/rlb-project/rlb/internal/sim"

// Flow is one unidirectional transfer between two hosts. The harness creates
// flows via Host.StartFlow and reads the stats afterwards.
type Flow struct {
	ID   uint32
	Src  int
	Dst  int
	Size int // bytes to transfer

	NumPkts uint32 // packets of Host.MTU wire bytes (last one padded)

	StartAt  sim.Time
	FinishAt sim.Time
	Done     bool

	// Sender-side stats.
	PktsSent uint64 // data frames transmitted, including retransmissions
	Retrans  uint64 // retransmitted frames (go-back-N rewind cost)
	RTOs     uint64 // retransmission timeouts fired

	// Receiver-side stats.
	PktsRcvd uint64 // all data arrivals, including duplicates
	OOOPkts  uint64 // out-of-order arrivals (discarded, or kept by selective repeat)
	Dups     uint64 // arrivals below the expected sequence
	MaxOOD   uint32 // largest out-of-order degree observed
	CNPsSent uint64
}

// FCT returns the flow completion time, valid once Done.
func (f *Flow) FCT() sim.Time { return f.FinishAt - f.StartAt }

// GoodputBytes returns the payload bytes delivered (Size when Done).
func (f *Flow) GoodputBytes() int {
	if f.Done {
		return f.Size
	}
	return 0
}
