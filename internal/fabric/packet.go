// Package fabric models the data plane shared by hosts and switches: packets,
// full-duplex ports, and links with serialization and propagation delay.
//
// A Port is one end of a full-duplex link. Its egress side holds one FIFO
// queue per priority class and serializes packets at the link rate; the
// ingress side delivers packets to the owning Device after the propagation
// delay. Priority-based flow control (PFC) pause state lives on the egress
// side: a paused priority class simply stops being scheduled, while an
// in-flight frame always finishes serialization, matching IEEE 802.1Qbb.
package fabric

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/sim"
)

// PacketType discriminates the frames that cross the fabric.
type PacketType uint8

// Frame kinds. Data carries flow payload; all others are control frames that
// travel in the control priority class and are never paused by data-class PFC.
const (
	Data PacketType = iota
	Ack
	Nak
	CNP    // DCQCN congestion notification packet (NP -> RP)
	Pause  // PFC PAUSE for a priority class
	Resume // PFC RESUME for a priority class
	CNM    // RLB's PFC-warning congestion notification message
)

// String returns the frame kind name.
func (t PacketType) String() string {
	switch t {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nak:
		return "NAK"
	case CNP:
		return "CNP"
	case Pause:
		return "PAUSE"
	case Resume:
		return "RESUME"
	case CNM:
		return "CNM"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// Priority classes. Control is strict-priority above Data and is exempt from
// data-class PFC, mirroring how PFC/CNP frames use a separate traffic class
// in RoCE deployments.
const (
	PrioControl = 0
	PrioData    = 1
	NumPrio     = 2
)

// Typical frame sizes in bytes.
const (
	// ControlFrameSize is the wire size of ACK/NAK/CNP/PFC/CNM frames.
	ControlFrameSize = 64
	// DefaultMTU is the wire size of a full data frame (payload + headers).
	DefaultMTU = 1000
)

// PauseInfo is the payload of PFC Pause/Resume frames.
type PauseInfo struct {
	Prio uint8    // paused priority class
	Dur  sim.Time // pause duration (ignored for Resume)
}

// CNMInfo is the payload of RLB's PFC-warning message (§3.2.1 of the paper).
// It identifies the congestion point so upstream switches can scope the
// warning to the paths that traverse it.
type CNMInfo struct {
	// SwitchID is the switch whose ingress queue is predicted to trigger PFC.
	SwitchID int
	// IngressPort is the port id at that switch (the QCN field of the CNM).
	IngressPort int
	// DstLeaf optionally scopes the warning to paths toward one leaf; -1
	// means the warning applies to every destination through this hop.
	DstLeaf int
	// Hops counts propagation hops, bounding hop-by-hop flooding.
	Hops int
}

// AckInfo is the payload of ACK and NAK frames.
type AckInfo struct {
	Seq uint32 // NAK: the expected (missing) sequence; ACK: cumulative next-expected
}

// Packet is a frame traversing the fabric. One struct serves all frame kinds;
// the control payloads are small and inlined to avoid per-frame allocations
// of secondary objects.
type Packet struct {
	Type PacketType
	Prio uint8
	Size int // bytes on the wire

	FlowID uint32
	Seq    uint32
	SrcID  int // source host id
	DstID  int // destination host id

	CE bool // ECN congestion-experienced mark

	Pause PauseInfo
	CNMsg CNMInfo
	AckNk AckInfo

	// SentAt is stamped by the source NIC when the frame first leaves it.
	SentAt sim.Time

	// Transient per-switch state, reset at each hop.

	// InPort is the ingress port index at the switch currently holding the
	// packet, used to release shared-buffer accounting on egress.
	InPort int
	// InPrio is the ingress accounting priority at the current switch.
	InPrio uint8
	// Recirc counts egress->ingress recirculations at the current switch.
	Recirc int

	// Retransmitted marks frames sent again by go-back-N (for accounting).
	Retransmitted bool

	// pool, when non-nil, is the free list this frame came from and returns
	// to on Release; inPool guards against double returns (see pool.go).
	pool   *Pool
	inPool bool
}

// Pooled reports whether the frame came from a packet pool (and therefore
// participates in the pool-conservation audit).
func (p *Packet) Pooled() bool { return p.pool != nil }

// NewData returns a data frame of the given wire size.
func NewData(flow uint32, seq uint32, size int, src, dst int) *Packet {
	//simlint:allow(hotpath) unpooled constructor: pooled runs take Pool.get instead; reached hot only as the nil-pool fallback
	return &Packet{Type: Data, Prio: PrioData, Size: size, FlowID: flow, Seq: seq, SrcID: src, DstID: dst}
}

// NewControl returns a control frame of the given kind addressed dst.
func NewControl(t PacketType, src, dst int) *Packet {
	//simlint:allow(hotpath) unpooled constructor: pooled runs take Pool.get instead; reached hot only as the nil-pool fallback
	return &Packet{Type: t, Prio: PrioControl, Size: ControlFrameSize, SrcID: src, DstID: dst}
}
