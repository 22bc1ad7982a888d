package transport

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/dcqcn"
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/flatmap"
	"github.com/rlb-project/rlb/internal/invariant"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// HostConfig tunes the end-host transport.
type HostConfig struct {
	// MTU is the wire size of a full data frame.
	MTU int
	// AckEvery coalesces cumulative ACKs: one per this many in-order frames.
	AckEvery uint32
	// RTO is the sender's tail-recovery timeout after everything has been
	// sent once and neither ACK nor NAK arrives (only matters when frames
	// can actually be lost, i.e. PFC disabled).
	RTO sim.Time
	// NICQueueCap backpressures pacing when the NIC egress queue exceeds it,
	// modelling the bounded on-NIC buffer.
	NICQueueCap int
	// CCEnabled turns DCQCN on.
	CCEnabled bool
	// CC holds the DCQCN parameters.
	CC dcqcn.Config
	// Checker, when non-nil, receives receiver-side invariant assertions
	// (in-order PSN delivery; strict tier only). The topology layer installs
	// the simulation's checker here.
	Checker *invariant.Checker
	// Pool, when non-nil, supplies this host's data and control frames from
	// the simulation's packet free list; delivered frames return to it. Nil
	// degrades to plain allocation.
	Pool *fabric.Pool
	// SelectiveRepeat switches loss recovery to an IRN-style scheme
	// (Mittal et al., SIGCOMM 2018, cited in the paper's related work):
	// the receiver keeps out-of-order arrivals and NAKs only the missing
	// sequence; the sender retransmits exactly that packet instead of
	// rewinding. IRN is the "abandon PFC, fix the transport" alternative
	// to RLB's "keep PFC, fix load balancing".
	SelectiveRepeat bool
}

// DefaultHostConfig returns the settings used across the evaluation.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		MTU:         fabric.DefaultMTU,
		AckEvery:    16,
		RTO:         400 * sim.Microsecond,
		NICQueueCap: 128 * 1000,
		CCEnabled:   true,
		CC:          dcqcn.DefaultConfig(),
	}
}

// Host is an end host with one NIC port. It multiplexes any number of
// sending and receiving flows and implements fabric.Device.
type Host struct {
	Eng *sim.Engine
	ID  int
	Cfg HostConfig

	nic  *fabric.Port
	line units.Bandwidth

	// senders/receivers resolve the per-flow endpoint for every frame the
	// NIC receives — flat open-addressed tables (see internal/flatmap), so
	// the per-packet dispatch is one probe, not a built-in map lookup.
	senders   flatmap.U32[*sender]
	receivers flatmap.U32[*receiver]

	// OnFlowDone fires (on the receiving host) when a flow completes.
	OnFlowDone func(*Flow)
	// OODHook observes every out-of-order arrival's degree.
	OODHook func(f *Flow, ood uint32)
}

// NewHost creates a host; connect its NIC with host.NIC() before use.
func NewHost(eng *sim.Engine, id int, cfg HostConfig) *Host {
	h := &Host{
		Eng: eng,
		ID:  id,
		Cfg: cfg,
	}
	h.nic = &fabric.Port{Eng: eng, Owner: h, Index: 0}
	return h
}

// NIC returns the host's single port for wiring into a topology.
func (h *Host) NIC() *fabric.Port { return h.nic }

// DevID implements fabric.Device.
func (h *Host) DevID() int { return h.ID }

// LineRate returns the NIC rate (valid after the port is connected).
func (h *Host) LineRate() units.Bandwidth {
	if h.line == 0 {
		h.line = h.nic.Rate
	}
	return h.line
}

// StartFlow begins transferring size bytes from h to dst, returning the flow
// handle whose stats fill in as the simulation runs.
func (h *Host) StartFlow(id uint32, dst *Host, size int) *Flow {
	if size <= 0 {
		panic(fmt.Sprintf("transport: flow %d with non-positive size %d", id, size))
	}
	f := &Flow{
		ID:      id,
		Src:     h.ID,
		Dst:     dst.ID,
		Size:    size,
		NumPkts: uint32((size + h.Cfg.MTU - 1) / h.Cfg.MTU),
		StartAt: h.Eng.Now(),
	}
	snd := newSender(h, f)
	h.senders.Put(id, snd)
	dst.receivers.Put(id, newReceiver(dst, f))
	snd.start()
	return f
}

// Receive implements fabric.Device: NIC-level dispatch. Every frame reaching
// a host is terminally consumed here and returns to the packet pool.
func (h *Host) Receive(pkt *fabric.Packet, in *fabric.Port) {
	switch pkt.Type {
	case fabric.Pause:
		in.SetPaused(pkt.Pause.Prio, true, pkt.Pause.Dur)
	case fabric.Resume:
		in.SetPaused(pkt.Pause.Prio, false, 0)
	case fabric.Data:
		if r, ok := h.receivers.Get(pkt.FlowID); ok {
			r.onData(pkt)
		}
	case fabric.Ack, fabric.Nak:
		if s, ok := h.senders.Get(pkt.FlowID); ok {
			s.onAckNak(pkt)
		}
	case fabric.CNP:
		if s, ok := h.senders.Get(pkt.FlowID); ok {
			s.onCNP()
		}
	}
	fabric.Release(pkt)
}

// sendControl emits a control frame from this host.
func (h *Host) sendControl(t fabric.PacketType, flow uint32, dst int, seq uint32) {
	pkt := h.Cfg.Pool.Control(t, h.ID, dst)
	pkt.FlowID = flow
	pkt.AckNk.Seq = seq
	h.nic.Enqueue(pkt)
}
