package core

import (
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/telemetry"
	"github.com/rlb-project/rlb/internal/units"
)

// PredictorStats counts predictor activity.
type PredictorStats struct {
	Samples   uint64
	Warnings  uint64 // CNMs originated by this predictor
	Predicted uint64 // warnings triggered by the derivative term
	Static    uint64 // warnings refreshed by an active pause above Qth
}

// Predictor is RLB's predicting module (§3.2.1) attached to one switch. It
// samples the ingress-queue lengths every DeltaT, differentiates them, and
// sends a CNM out of any ingress port whose queue is about to trigger PFC.
// A Ticker drives the sampling.
type Predictor struct {
	sw     *switchsim.Switch
	params Params

	// monitor lists the ingress port indices watched (a leaf only watches
	// its fabric-facing ports; warning hosts is pointless).
	monitor []int

	// originDstLeaf scopes warnings originated here: the leaf index when
	// this switch is a destination leaf, or -1 on spines (port-level PFC
	// pauses every destination equally).
	originDstLeaf int

	qth int
	// warnTime is the remaining-time threshold derived from Qth: a queue
	// predicted to hit the PFC threshold within warnTime triggers a CNM.
	warnTime sim.Time
	prev     []int
	lastWarn []sim.Time
	// idle records that every monitored queue was empty at the last sample.
	idle bool

	Stats PredictorStats
}

// NewPredictor attaches a predictor to sw, watching the given ingress ports.
// linkDelay and the port rate derive the conservative Qth. originDstLeaf
// scopes the CNMs (-1 for spines). The predictor samples once a Ticker
// drives it.
func NewPredictor(sw *switchsim.Switch, params Params, monitor []int, originDstLeaf int, linkDelay sim.Time) *Predictor {
	params = params.Normalize()
	rate := sw.Port(monitor[0]).Rate
	p := &Predictor{
		sw:            sw,
		params:        params,
		monitor:       monitor,
		originDstLeaf: originDstLeaf,
		qth:           params.Qth(sw.Cfg.PFCThreshold, linkDelay, rate),
		prev:          make([]int, sw.NumPorts()),
		lastWarn:      make([]sim.Time, sw.NumPorts()),
		idle:          true,
	}
	// The remaining-time threshold follows §3.2.3's line-rate analysis: a
	// queue at Qth growing at line rate C reaches QPFC in (QPFC−Qth)/C.
	// Congestion events aggregate several senders, so the per-ingress
	// growth headroom is divided by a typical fan-in of 4. A high Qth makes
	// this window shorter than the CNM's propagation+reaction time and the
	// warning arrives after PFC has triggered — the Fig. 10(a) failure mode.
	p.warnTime = units.TxTime(sw.Cfg.PFCThreshold-p.qth, rate) / 4
	for i := range p.lastWarn {
		p.lastWarn[i] = -sim.Second
	}
	return p
}

// QthBytes returns the effective warning threshold.
func (p *Predictor) QthBytes() int { return p.qth }

// sample is one Δt tick: differentiate each monitored ingress queue and warn
// upstream when PFC triggering is imminent.
func (p *Predictor) sample() {
	p.Stats.Samples++
	if p.idle && p.sw.SharedUsed() == 0 {
		// Every monitored queue was empty last time and still is: each
		// port would record a zero derivative and skip.
		return
	}
	now := p.sw.Eng.Now()
	qPFC := p.sw.Cfg.PFCThreshold
	p.idle = true
	for _, port := range p.monitor {
		q := p.sw.IngressBytes(port)
		deriv := q - p.prev[port] // bytes per DeltaT
		p.prev[port] = q
		if q == 0 {
			continue
		}
		p.idle = false
		// §3.2.1: compute the remaining time until the queue reaches the PFC
		// threshold at its current growth rate; warn when that time drops
		// below the warning-time threshold. The threshold is derived from
		// Qth as T = (QPFC − Qth) / C — i.e. a queue growing at line rate
		// warns exactly when it crosses Qth, and slower growth warns
		// correspondingly closer to QPFC. Low Qth ⇒ large T ⇒ early
		// warnings; high Qth ⇒ late warnings (the Fig. 10(a) trade-off).
		// An already-active pause keeps the warning refreshed for as long
		// as the upstream is being paused.
		warn := predictWarn(q, deriv, qPFC, p.qth, p.params.DeltaT, p.warnTime,
			p.sw.PauseActive(port))
		switch warn {
		case warnStatic:
			p.Stats.Static++
		case warnPredicted:
			p.Stats.Predicted++
		}
		if warn != warnNone && now-p.lastWarn[port] >= p.params.ReWarnInterval {
			p.lastWarn[port] = now
			p.sendCNM(port)
		}
	}
}

// warnCause classifies one sample's warn decision.
type warnCause int

const (
	warnNone      warnCause = iota
	warnStatic              // threshold term: active-pause refresh
	warnPredicted           // derivative term: PFC predicted within the warning window
)

// predictWarn is the §3.2.1 per-port warn decision, extracted pure so the
// boundary cases are table-testable: q is the sampled ingress-queue length,
// deriv its growth in bytes per deltaT, qPFC the switch's PFC threshold,
// qth the effective warning threshold, warnTime the remaining-time
// threshold T = (QPFC − Qth)/C scaled for fan-in, and paused whether the
// port is already pausing its upstream.
func predictWarn(q, deriv, qPFC, qth int, deltaT, warnTime sim.Time, paused bool) warnCause {
	switch {
	case q < qth:
		// Below the congestion-activation threshold: no prediction.
	case paused:
		return warnStatic
	case deriv > 0:
		// remaining = (qPFC - q)/deriv * Δt  <=  T(qth)
		remaining := int64(qPFC-q) * int64(deltaT) / int64(deriv)
		if remaining <= int64(warnTime) {
			return warnPredicted
		}
	}
	return warnNone
}

// sendCNM emits the PFC warning out of the endangered ingress port, i.e.
// directly to the upstream hop that is feeding the queue.
func (p *Predictor) sendCNM(port int) {
	p.Stats.Warnings++
	p.sw.RecordEvent(telemetry.CNMSent, port, 0, 0, p.sw.IngressBytes(port))
	cnm := p.sw.Pool.Control(fabric.CNM, p.sw.ID, -1)
	cnm.CNMsg = fabric.CNMInfo{
		SwitchID:    p.sw.ID,
		IngressPort: port,
		DstLeaf:     p.originDstLeaf,
		Hops:        0,
	}
	p.sw.SendControl(cnm, port)
}
