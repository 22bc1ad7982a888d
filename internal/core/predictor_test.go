package core

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/units"
)

// recorder is an upstream endpoint that records CNM and PAUSE arrivals.
type recorder struct {
	eng     *sim.Engine
	id      int
	port    *fabric.Port
	cnmAt   []sim.Time
	pauseAt []sim.Time
	dataGot int
}

func newRecorder(eng *sim.Engine, id int) *recorder {
	r := &recorder{eng: eng, id: id}
	r.port = &fabric.Port{Eng: eng, Owner: r, Index: 0}
	return r
}

func (r *recorder) DevID() int { return r.id }

func (r *recorder) Receive(pkt *fabric.Packet, in *fabric.Port) {
	switch pkt.Type {
	case fabric.CNM:
		r.cnmAt = append(r.cnmAt, r.eng.Now())
	case fabric.Pause:
		r.pauseAt = append(r.pauseAt, r.eng.Now())
		in.SetPaused(pkt.Pause.Prio, true, pkt.Pause.Dur)
	case fabric.Resume:
		in.SetPaused(pkt.Pause.Prio, false, 0)
	default:
		r.dataGot++
	}
}

type predRig struct {
	eng  *sim.Engine
	sw   *switchsim.Switch
	up   *recorder // upstream (sender side)
	down *recorder // downstream (slow sink)
	pred *Predictor
	tick *Ticker
}

// newPredRig builds up --40G--> sw --slow--> down with a predictor on sw
// watching ingress port 0, driven by its own ticker.
func newPredRig(cfg switchsim.Config, params Params, slow units.Bandwidth) *predRig {
	eng := sim.NewEngine()
	sw := switchsim.New(eng, 100, 2, cfg, rng.New(3))
	up := newRecorder(eng, 0)
	down := newRecorder(eng, 1)
	fabric.Connect(up.port, sw.Port(0), 40*units.Gbps, 2*sim.Microsecond)
	fabric.Connect(down.port, sw.Port(1), slow, 2*sim.Microsecond)
	sw.SetRouter(switchsim.RouterFunc(func(_ *switchsim.Switch, pkt *fabric.Packet, _ int) switchsim.Decision {
		return switchsim.Decision{Out: 1}
	}))
	pred := NewPredictor(sw, params, []int{0}, -1, 2*sim.Microsecond)
	tick := NewTicker(eng, []*Predictor{pred})
	return &predRig{eng: eng, sw: sw, up: up, down: down, pred: pred, tick: tick}
}

func (r *predRig) flood(n int) {
	for i := 0; i < n; i++ {
		r.up.port.Enqueue(fabric.NewData(1, uint32(i), 1000, 0, 1))
	}
}

func TestPredictorWarnsBeforePFC(t *testing.T) {
	cfg := switchsim.DefaultConfig()
	cfg.PFCThreshold = 100 * 1000
	r := newPredRig(cfg, Params{}, 4*units.Gbps)
	r.flood(300) // 300 KB burst into a 10x slower egress
	r.eng.RunUntil(5 * sim.Millisecond)
	r.tick.Stop()
	if len(r.up.cnmAt) == 0 {
		t.Fatal("predictor never warned")
	}
	if len(r.up.pauseAt) == 0 {
		t.Fatal("scenario too gentle: PFC never triggered")
	}
	if r.up.cnmAt[0] >= r.up.pauseAt[0] {
		t.Fatalf("warning at %v not before PAUSE at %v", r.up.cnmAt[0], r.up.pauseAt[0])
	}
}

func TestPredictorQuietWhenUncongested(t *testing.T) {
	cfg := switchsim.DefaultConfig()
	r := newPredRig(cfg, Params{}, 40*units.Gbps) // egress as fast as ingress
	r.flood(100)
	r.eng.RunUntil(sim.Millisecond)
	r.tick.Stop()
	if len(r.up.cnmAt) != 0 {
		t.Fatalf("%d spurious warnings on an uncongested path", len(r.up.cnmAt))
	}
}

func TestPredictorDerivativeFiresBeforeStaticThreshold(t *testing.T) {
	cfg := switchsim.DefaultConfig()
	cfg.PFCThreshold = 120 * 1000
	// Static threshold very late: the derivative term must be what fires.
	params := Params{QthFraction: 0.8}
	r := newPredRig(cfg, params, 2*units.Gbps)
	r.flood(200)
	r.eng.RunUntil(2 * sim.Millisecond)
	r.tick.Stop()
	if r.pred.Stats.Predicted == 0 {
		t.Fatalf("derivative term never fired: %+v", r.pred.Stats)
	}
}

func TestPredictorRateLimitsCNMs(t *testing.T) {
	cfg := switchsim.DefaultConfig()
	cfg.PFCThreshold = 50 * 1000
	params := Params{ReWarnInterval: 20 * sim.Microsecond}
	r := newPredRig(cfg, params, units.Gbps)
	r.flood(500)
	horizon := 2 * sim.Millisecond
	r.eng.RunUntil(horizon)
	r.tick.Stop()
	maxCNMs := uint64(horizon/params.ReWarnInterval) + 2
	if r.pred.Stats.Warnings > maxCNMs {
		t.Fatalf("warnings = %d exceed rate limit %d", r.pred.Stats.Warnings, maxCNMs)
	}
	if r.pred.Stats.Warnings < 2 {
		t.Fatal("persistent congestion should refresh warnings")
	}
}

func TestPredictorStopDrainsEventQueue(t *testing.T) {
	cfg := switchsim.DefaultConfig()
	r := newPredRig(cfg, Params{}, 40*units.Gbps)
	r.eng.RunUntil(20 * sim.Microsecond)
	r.tick.Stop()
	r.eng.Run() // must terminate: no self-rearming timers left
	if r.eng.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop", r.eng.Pending())
	}
}

func TestPredictorQthExposed(t *testing.T) {
	cfg := switchsim.DefaultConfig()
	r := newPredRig(cfg, Params{QthFraction: 0.5}, 40*units.Gbps)
	defer r.tick.Stop()
	if r.pred.QthBytes() != 128*1000 {
		t.Fatalf("Qth = %d, want 128000", r.pred.QthBytes())
	}
}

func TestRelayPropagatesUpstream(t *testing.T) {
	// up0, up1 --> spine --> downLeaf. Data from both ups flows to down;
	// then a CNM from downLeaf must be relayed to both ups.
	eng := sim.NewEngine()
	cfg := switchsim.DefaultConfig()
	spine := switchsim.New(eng, 200, 3, cfg, rng.New(4))
	up0, up1, down := newRecorder(eng, 0), newRecorder(eng, 1), newRecorder(eng, 2)
	fabric.Connect(up0.port, spine.Port(0), 40*units.Gbps, sim.Microsecond)
	fabric.Connect(up1.port, spine.Port(1), 40*units.Gbps, sim.Microsecond)
	fabric.Connect(down.port, spine.Port(2), 40*units.Gbps, sim.Microsecond)
	spine.SetRouter(switchsim.RouterFunc(func(_ *switchsim.Switch, pkt *fabric.Packet, _ int) switchsim.Decision {
		return switchsim.Decision{Out: 2}
	}))
	relay := NewRelay(spine, Params{})
	spine.OnControl = relay.OnControl

	up0.port.Enqueue(fabric.NewData(1, 0, 1000, 0, 2))
	up1.port.Enqueue(fabric.NewData(2, 0, 1000, 1, 2))
	eng.RunUntil(20 * sim.Microsecond)

	cnm := fabric.NewControl(fabric.CNM, 2, -1)
	cnm.CNMsg = fabric.CNMInfo{SwitchID: 2, IngressPort: 0, DstLeaf: 7}
	down.port.Enqueue(cnm)
	eng.Run()

	if len(up0.cnmAt) != 1 || len(up1.cnmAt) != 1 {
		t.Fatalf("relay reached %d/%d upstreams, want 1/1", len(up0.cnmAt), len(up1.cnmAt))
	}
	if relay.Stats.Received != 1 || relay.Stats.Relayed != 2 {
		t.Fatalf("relay stats = %+v", relay.Stats)
	}
}

func TestRelayHopLimit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := switchsim.DefaultConfig()
	spine := switchsim.New(eng, 200, 2, cfg, rng.New(5))
	up, down := newRecorder(eng, 0), newRecorder(eng, 1)
	fabric.Connect(up.port, spine.Port(0), 40*units.Gbps, sim.Microsecond)
	fabric.Connect(down.port, spine.Port(1), 40*units.Gbps, sim.Microsecond)
	spine.SetRouter(switchsim.RouterFunc(func(_ *switchsim.Switch, pkt *fabric.Packet, _ int) switchsim.Decision {
		return switchsim.Decision{Out: 1}
	}))
	relay := NewRelay(spine, Params{})
	spine.OnControl = relay.OnControl
	up.port.Enqueue(fabric.NewData(1, 0, 1000, 0, 1))
	eng.RunUntil(20 * sim.Microsecond)

	cnm := fabric.NewControl(fabric.CNM, 1, -1)
	cnm.CNMsg = fabric.CNMInfo{SwitchID: 1, IngressPort: 0, Hops: maxCNMHops - 1}
	down.port.Enqueue(cnm)
	eng.Run()
	if len(up.cnmAt) != 0 {
		t.Fatal("hop limit not enforced")
	}
}
