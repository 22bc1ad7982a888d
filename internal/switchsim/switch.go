// Package switchsim implements the paper's shared-memory switch model
// (Fig. 1): every data frame is accounted against both an ingress-port
// counter and the shared memory pool, the MMU compares ingress occupancy to
// the PFC threshold, and PAUSE/RESUME frames throttle the upstream hop.
// Egress queues mark ECN (the DCQCN congestion point) and a pluggable Router
// decides forwarding, enabling load-balancing policies and RLB's
// recirculation.
package switchsim

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/flatmap"
	"github.com/rlb-project/rlb/internal/invariant"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// Config holds the switch data-plane parameters. Defaults follow the paper's
// simulation settings (§2.2.1 and §4): 9 MB shared buffer, 256 KB PFC
// threshold per ingress port, DCQCN-style ECN marking.
type Config struct {
	// BufferBytes is the shared memory pool size.
	BufferBytes int
	// PFCThreshold pauses the upstream when one ingress port's data-class
	// occupancy exceeds it.
	PFCThreshold int
	// PFCEnabled turns the PAUSE mechanism on (off reproduces the lossy
	// baseline in Fig. 3).
	PFCEnabled bool
	// PauseDur is the pause-quanta duration carried in PAUSE frames; the
	// switch refreshes the pause at half this period while still over
	// threshold, and sends RESUME as soon as occupancy falls back.
	PauseDur sim.Time
	// ECNEnabled turns RED/ECN marking at egress on.
	ECNEnabled bool
	// ECNKmin / ECNKmax / ECNPmax are the RED marking parameters applied to
	// the egress data queue, per DCQCN.
	ECNKmin int
	ECNKmax int
	ECNPmax float64
}

// DefaultConfig returns the paper's switch settings.
func DefaultConfig() Config {
	return Config{
		BufferBytes:  9 * 1000 * 1000,
		PFCThreshold: 256 * 1000,
		PFCEnabled:   true,
		PauseDur:     65 * sim.Microsecond,
		ECNEnabled:   true,
		ECNKmin:      40 * 1000,
		ECNKmax:      160 * 1000,
		ECNPmax:      0.1,
	}
}

// Decision is a Router verdict for one data frame.
type Decision struct {
	// Out is the egress port index (ignored when Recirculate is set).
	Out int
	// Recirculate sends the frame through the egress->ingress loop: it stays
	// on this switch for RecircDelay and is then routed again (the PSA
	// recirculation primitive RLB builds on).
	Recirculate bool
	// RecircDelay is the pipeline delay of one recirculation pass.
	RecircDelay sim.Time
}

// Router decides the egress port for data frames arriving at a switch.
type Router interface {
	Route(sw *Switch, pkt *fabric.Packet, inPort int) Decision
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(sw *Switch, pkt *fabric.Packet, inPort int) Decision

// Route implements Router.
func (f RouterFunc) Route(sw *Switch, pkt *fabric.Packet, inPort int) Decision {
	return f(sw, pkt, inPort)
}

// Stats aggregates switch-level counters used by the evaluation.
type Stats struct {
	PauseSent   uint64 // PFC PAUSE frames generated (pause rate metric)
	ResumeSent  uint64
	CNMSent     uint64 // RLB warnings generated by the local predictor
	CNMRelayed  uint64 // RLB warnings propagated hop-by-hop
	Recirced    uint64 // data frames recirculated
	Dropped     uint64 // shared-pool overflow drops
	DataIn      uint64
	PeakShared  int
	PeakIngress int
}

// Switch is a shared-memory output-queued switch with PFC.
type Switch struct {
	Eng *sim.Engine
	// ID is the device id (unique across hosts and switches).
	ID  int
	Cfg Config
	Rng *rng.Source

	ports []*fabric.Port

	// Per-ingress-port data-class occupancy (the PFC-watched quantity).
	ingressBytes []int
	pauseActive  []bool
	refreshTimer []sim.Timer

	sharedUsed int

	// recircPooled counts pool-owned frames inside the recirculation loop
	// (scheduled to re-enter the pipeline), for the pool-conservation audit.
	recircPooled int

	router Router

	// OnControl, if set, sees control frames before default handling and
	// reports whether it consumed them. RLB hooks CNM processing here.
	OnControl func(pkt *fabric.Packet, inPort int) bool

	// upstreamUse tracks, per egress port, which ingress ports recently fed
	// it; RLB's CNM relay uses this instead of MAC learning (see DESIGN.md).
	// Each egress port holds a dense per-ingress stamp row: recording use is
	// one slice store, membership is one compare against the horizon cutoff,
	// and aging needs no delete (see internal/flatmap).
	upstreamUse []flatmap.Stamps[sim.Time]
	// upsScratch is the reusable RecentUpstreams result buffer, sized to
	// the port count so collecting upstreams never allocates.
	upsScratch []int

	// Events, when attached, records the switch's control-plane events and
	// those of the RLB components on it (see RecordEvent).
	Events *telemetry.EventLog

	// Pool, when attached, supplies the switch's self-originated control
	// frames (PAUSE/RESUME/CNM) from the simulation's packet free list. Nil
	// degrades to plain allocation.
	Pool *fabric.Pool

	// Checker, when attached, receives runtime invariant assertions (shared
	// pool bounds/conservation, PFC losslessness, monotone time). Nil-safe.
	Checker *invariant.Checker

	Stats Stats
}

// New creates a switch with nPorts ports owned by it.
func New(eng *sim.Engine, id int, nPorts int, cfg Config, rnd *rng.Source) *Switch {
	sw := &Switch{
		Eng:          eng,
		ID:           id,
		Cfg:          cfg,
		Rng:          rnd,
		ports:        make([]*fabric.Port, nPorts),
		ingressBytes: make([]int, nPorts),
		pauseActive:  make([]bool, nPorts),
		refreshTimer: make([]sim.Timer, nPorts),
		upstreamUse:  make([]flatmap.Stamps[sim.Time], nPorts),
		upsScratch:   make([]int, 0, nPorts),
	}
	for i := range sw.ports {
		p := &fabric.Port{Eng: eng, Owner: sw, Index: i}
		p.OnTxDone = sw.onTxDone
		sw.ports[i] = p
		sw.upstreamUse[i] = flatmap.NewStamps[sim.Time](nPorts)
	}
	return sw
}

// DevID implements fabric.Device.
func (sw *Switch) DevID() int { return sw.ID }

// Port returns port i.
func (sw *Switch) Port(i int) *fabric.Port { return sw.ports[i] }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// SetRouter installs the forwarding policy.
func (sw *Switch) SetRouter(r Router) { sw.router = r }

// IngressBytes returns the data-class occupancy attributed to ingress port i
// — the quantity RLB's predictor differentiates.
func (sw *Switch) IngressBytes(i int) int { return sw.ingressBytes[i] }

// SharedUsed returns current shared-pool occupancy.
func (sw *Switch) SharedUsed() int { return sw.sharedUsed }

// RecentUpstreams returns the ingress ports that fed egress port out within
// the horizon, for CNM hop-by-hop relay. The result is sorted by
// construction — the dense stamp row is scanned in port order — so
// iteration order can never leak nondeterminism into the event schedule
// (simulations are replayed bit-for-bit by seed). Stale entries age out by
// failing the cutoff compare; nothing is deleted. The returned slice is the
// switch's scratch buffer, valid until the next call.
func (sw *Switch) RecentUpstreams(out int, horizon sim.Time) []int {
	cutoff := sw.Eng.Now() - horizon
	row := &sw.upstreamUse[out]
	ups := sw.upsScratch[:0]
	for in := 0; in < row.Len(); in++ {
		if row.AtLeast(in, cutoff) {
			//simlint:allow(hotpath) bounded by the port count; capacity preallocated at construction, never grows
			ups = append(ups, in)
		}
	}
	return ups
}

// SendControl enqueues a control frame out of port index out.
func (sw *Switch) SendControl(pkt *fabric.Packet, out int) {
	sw.ports[out].Enqueue(pkt)
}

// Receive implements fabric.Device.
func (sw *Switch) Receive(pkt *fabric.Packet, in *fabric.Port) {
	switch pkt.Type {
	case fabric.Pause:
		// The downstream hop told us to stop sending this priority through
		// the port the PAUSE arrived on.
		in.SetPaused(pkt.Pause.Prio, true, pkt.Pause.Dur)
		fabric.Release(pkt)
		return
	case fabric.Resume:
		in.SetPaused(pkt.Pause.Prio, false, 0)
		fabric.Release(pkt)
		return
	case fabric.Data:
		sw.receiveData(pkt, in.Index)
		return
	default:
		if sw.OnControl != nil && sw.OnControl(pkt, in.Index) {
			fabric.Release(pkt)
			return
		}
		// Other control frames (ACK/NAK/CNP) are forwarded like data
		// but in the control class and without buffer accounting.
		sw.forwardControl(pkt, in.Index)
	}
}

func (sw *Switch) forwardControl(pkt *fabric.Packet, inPort int) {
	dec := sw.router.Route(sw, pkt, inPort)
	// Control frames never recirculate; a Recirculate decision for them is a
	// router bug.
	if dec.Recirculate {
		panic(fmt.Sprintf("switchsim: router recirculated a %v frame", pkt.Type))
	}
	sw.ports[dec.Out].Enqueue(pkt)
}

func (sw *Switch) receiveData(pkt *fabric.Packet, inPort int) {
	sw.Stats.DataIn++
	sw.Checker.ObserveEvent(sw.Eng.Now())
	// MMU admission: shared pool overflow drops the frame (with PFC sized
	// correctly this should not happen; the counter is a canary).
	if sw.sharedUsed+pkt.Size > sw.Cfg.BufferBytes {
		sw.Stats.Dropped++
		if sw.Cfg.PFCEnabled {
			sw.Checker.PFCDrop(sw.Eng.Now(), sw.ID, sw.sharedUsed)
		}
		sw.RecordEvent(telemetry.Drop, inPort, pkt.FlowID, pkt.Seq, sw.sharedUsed)
		fabric.Release(pkt)
		return
	}
	sw.sharedUsed += pkt.Size
	sw.Checker.PoolBounds(sw.Eng.Now(), sw.ID, sw.sharedUsed, sw.Cfg.BufferBytes)
	if sw.sharedUsed > sw.Stats.PeakShared {
		sw.Stats.PeakShared = sw.sharedUsed
	}
	sw.ingressBytes[inPort] += pkt.Size
	if sw.ingressBytes[inPort] > sw.Stats.PeakIngress {
		sw.Stats.PeakIngress = sw.ingressBytes[inPort]
	}
	sw.auditStrict()
	pkt.InPort = inPort
	pkt.InPrio = pkt.Prio
	pkt.Recirc = 0

	sw.checkPFC(inPort)
	sw.routeData(pkt, inPort)
}

// Event codes for the switch's typed events: the scalar word carries the code
// in its low byte and the port index above it.
const (
	swEvRecirc uint64 = iota
	swEvRefresh
)

// OnEvent implements sim.Handler for recirculation passes (frame in the
// pointer payload, ingress port in the scalar word) and PFC pause-refresh
// ticks (ingress port in the scalar word).
func (sw *Switch) OnEvent(arg sim.EventArg) {
	port := int(arg.U64 >> 8)
	switch arg.U64 & 0xff {
	case swEvRecirc:
		pkt := arg.Ptr.(*fabric.Packet)
		if pkt.Pooled() {
			sw.recircPooled--
		}
		sw.routeData(pkt, port)
	case swEvRefresh:
		if !sw.pauseActive[port] {
			return
		}
		sw.sendPause(port)
		sw.armRefresh(port)
	}
}

// RecircPooled returns the number of pool-owned frames inside the
// recirculation loop (for the pool-conservation audit).
func (sw *Switch) RecircPooled() int { return sw.recircPooled }

func (sw *Switch) routeData(pkt *fabric.Packet, inPort int) {
	dec := sw.router.Route(sw, pkt, inPort)
	if dec.Recirculate {
		sw.Stats.Recirced++
		pkt.Recirc++
		sw.RecordEvent(telemetry.Recirc, inPort, pkt.FlowID, pkt.Seq, pkt.Recirc)
		delay := dec.RecircDelay
		if delay <= 0 {
			delay = sim.Microsecond
		}
		// The frame stays in shared memory (still charged to its ingress)
		// and re-enters the ingress pipeline after the recirculation delay.
		if pkt.Pooled() {
			sw.recircPooled++
		}
		sw.Eng.ScheduleAfter(delay, sw, sim.EventArg{Ptr: pkt, U64: swEvRecirc | uint64(inPort)<<8})
		return
	}
	sw.upstreamUse[dec.Out].Set(inPort, sw.Eng.Now())
	out := sw.ports[dec.Out]
	if sw.Cfg.ECNEnabled {
		sw.maybeMark(pkt, out)
	}
	out.Enqueue(pkt)
}

// maybeMark applies RED marking against the egress data-class backlog.
func (sw *Switch) maybeMark(pkt *fabric.Packet, out *fabric.Port) {
	qlen := out.QueuedBytes(fabric.PrioData)
	switch {
	case qlen <= sw.Cfg.ECNKmin:
	case qlen >= sw.Cfg.ECNKmax:
		pkt.CE = true
	default:
		p := sw.Cfg.ECNPmax * float64(qlen-sw.Cfg.ECNKmin) / float64(sw.Cfg.ECNKmax-sw.Cfg.ECNKmin)
		if sw.Rng.Float64() < p {
			pkt.CE = true
		}
	}
}

// RecordEvent logs one event at this switch when an event log is attached.
func (sw *Switch) RecordEvent(kind telemetry.EventKind, port int, flow, seq uint32, aux int) {
	if sw.Events != nil {
		sw.Events.Record(telemetry.Event{At: sw.Eng.Now(), Kind: kind, Dev: sw.ID,
			Port: port, Flow: flow, Seq: seq, Aux: aux})
	}
}

// onTxDone releases buffer accounting when a data frame finishes leaving.
func (sw *Switch) onTxDone(pkt *fabric.Packet) {
	if pkt.Type != fabric.Data {
		return
	}
	sw.release(pkt)
}

func (sw *Switch) release(pkt *fabric.Packet) {
	sw.sharedUsed -= pkt.Size
	in := pkt.InPort
	sw.ingressBytes[in] -= pkt.Size
	if sw.ingressBytes[in] < 0 {
		panic("switchsim: ingress accounting went negative")
	}
	sw.Checker.PoolBounds(sw.Eng.Now(), sw.ID, sw.sharedUsed, sw.Cfg.BufferBytes)
	sw.auditStrict()
	sw.checkResume(in)
}

// auditStrict runs the full shared-pool conservation audit after a buffer
// mutation when the strict checker tier is on (O(ports), so opt-in).
func (sw *Switch) auditStrict() {
	if sw.Checker != nil && sw.Checker.Strict {
		sw.Checker.AuditPool(sw.Eng.Now(), sw.ID, sw.sharedUsed, sw.ingressBytes, false)
	}
}

// AuditInvariants runs the end-of-run conservation audit (cheap tier: once
// per run) and flags bytes stranded behind failed links — the blackhole
// signature of a policy that kept forwarding into a dead path.
func (sw *Switch) AuditInvariants() {
	if sw.Checker == nil {
		return
	}
	now := sw.Eng.Now()
	sw.Checker.AuditPool(now, sw.ID, sw.sharedUsed, sw.ingressBytes, true)
	for _, p := range sw.ports {
		if p.Down() && p.TotalQueuedBytes() > 0 {
			sw.Checker.Blackhole(now, sw.ID, p.Index, p.TotalQueuedBytes())
		}
	}
}

// checkPFC sends PAUSE upstream when an ingress counter crosses the
// threshold, then keeps refreshing it until occupancy falls back.
func (sw *Switch) checkPFC(in int) {
	if !sw.Cfg.PFCEnabled || sw.pauseActive[in] {
		return
	}
	if sw.ingressBytes[in] <= sw.Cfg.PFCThreshold {
		return
	}
	sw.pauseActive[in] = true
	sw.sendPause(in)
	sw.armRefresh(in)
}

func (sw *Switch) sendPause(in int) {
	sw.RecordEvent(telemetry.PauseOn, in, 0, 0, sw.ingressBytes[in])
	pause := sw.Pool.Control(fabric.Pause, sw.ID, -1)
	pause.Pause = fabric.PauseInfo{Prio: fabric.PrioData, Dur: sw.Cfg.PauseDur}
	sw.ports[in].Stats.PauseTx++
	sw.Stats.PauseSent++
	sw.ports[in].Enqueue(pause)
}

func (sw *Switch) armRefresh(in int) {
	sw.refreshTimer[in] = sw.Eng.ScheduleAfter(sw.Cfg.PauseDur/2, sw, sim.EventArg{U64: swEvRefresh | uint64(in)<<8})
}

func (sw *Switch) checkResume(in int) {
	if !sw.pauseActive[in] || sw.ingressBytes[in] > sw.Cfg.PFCThreshold {
		return
	}
	sw.pauseActive[in] = false
	sw.refreshTimer[in].Stop()
	sw.refreshTimer[in] = sim.Timer{}
	sw.RecordEvent(telemetry.PauseOff, in, 0, 0, sw.ingressBytes[in])
	resume := sw.Pool.Control(fabric.Resume, sw.ID, -1)
	resume.Pause = fabric.PauseInfo{Prio: fabric.PrioData}
	sw.Stats.ResumeSent++
	sw.ports[in].Enqueue(resume)
}

// PauseActive reports whether ingress port in currently holds its upstream
// paused.
func (sw *Switch) PauseActive(in int) bool { return sw.pauseActive[in] }
