package core

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/units"
)

// heldRig builds two switches under one ticker: sw[0] holds 20 KB of data
// behind an egress paused with no expiry (below Qth, so its predictor runs the
// per-port loop every round and never warns), sw[1] carries nothing (its
// predictor skips the loop). After the flood lands, a round is the only
// event left in the queue.
func heldRig(t testing.TB) (*sim.Engine, *Ticker, []*Predictor) {
	t.Helper()
	eng := sim.NewEngine()
	var preds []*Predictor
	for i := 0; i < 2; i++ {
		sw := switchsim.New(eng, 100+i, 2, switchsim.DefaultConfig(), rng.New(uint64(i)))
		up, down := newRecorder(eng, 2*i), newRecorder(eng, 2*i+1)
		fabric.Connect(up.port, sw.Port(0), 40*units.Gbps, 2*sim.Microsecond)
		fabric.Connect(down.port, sw.Port(1), 40*units.Gbps, 2*sim.Microsecond)
		sw.SetRouter(switchsim.RouterFunc(func(*switchsim.Switch, *fabric.Packet, int) switchsim.Decision {
			return switchsim.Decision{Out: 1}
		}))
		if i == 0 {
			sw.Port(1).SetPaused(fabric.PrioData, true, 0)
			for k := 0; k < 20; k++ {
				up.port.Enqueue(fabric.NewData(1, uint32(k), 1000, 0, 1))
			}
		}
		preds = append(preds, NewPredictor(sw, Params{}, []int{0}, -1, 2*sim.Microsecond))
	}
	tick := NewTicker(eng, preds)
	eng.RunUntil(50 * sim.Microsecond)
	if preds[0].sw.SharedUsed() != 20*1000 || preds[1].sw.SharedUsed() != 0 {
		t.Fatalf("rig shared pools %d / %d, want 20000 / 0",
			preds[0].sw.SharedUsed(), preds[1].sw.SharedUsed())
	}
	return eng, tick, preds
}

// TestTickerRoundZeroAlloc is the bench-smoke assertion for the predicting
// module: one Δt round — a sample with the per-port loop, a sample that
// skips it, both slot reservations and the round's event — allocates
// nothing.
func TestTickerRoundZeroAlloc(t *testing.T) {
	eng, tick, preds := heldRig(t)
	before := tick.Stats.Rounds
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + 2*sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("ticker round allocates %.1f times, want 0", allocs)
	}
	if rounds := tick.Stats.Rounds - before; rounds != 101 {
		t.Fatalf("%d rounds ran, want one per run", rounds)
	}
	if preds[0].idle || !preds[1].idle {
		t.Fatalf("idle flags %v/%v: the rig missed a sample path", preds[0].idle, preds[1].idle)
	}
	tick.Stop()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after Stop", eng.Pending())
	}
}

// TestTickerSamplesEveryPredictorEachRound checks the round bookkeeping:
// every predictor samples exactly once per round, including the first
// predictor of the first round.
func TestTickerSamplesEveryPredictorEachRound(t *testing.T) {
	eng, tick, preds := heldRig(t)
	eng.RunUntil(eng.Now() + 20*sim.Microsecond)
	tick.Stop()
	if tick.Stats.Rounds == 0 || tick.Stats.Yields != 0 {
		t.Fatalf("stats %+v, want rounds and no yields", tick.Stats)
	}
	for i, p := range preds {
		if p.Stats.Samples != tick.Stats.Rounds {
			t.Errorf("predictor %d sampled %d times in %d rounds", i, p.Stats.Samples, tick.Stats.Rounds)
		}
	}
}

// cnmProbe is an upstream device that runs onCNM at every CNM arrival and
// obeys PAUSE/RESUME.
type cnmProbe struct {
	port  *fabric.Port
	onCNM func()
}

func (d *cnmProbe) DevID() int { return 0 }

func (d *cnmProbe) Receive(pkt *fabric.Packet, in *fabric.Port) {
	switch pkt.Type {
	case fabric.CNM:
		d.onCNM()
	case fabric.Pause:
		in.SetPaused(pkt.Pause.Prio, true, pkt.Pause.Dur)
	case fabric.Resume:
		in.SetPaused(pkt.Pause.Prio, false, 0)
	}
}

// TestTickerYieldsToEventAheadOfSlot pins where a round yields. The second
// predictor's switch holds data above its PFC threshold behind a stuck
// egress, so it warns every ReWarnInterval, and its CNM needs exactly Δt to
// reach the upstream device (64 ns at 8 Gb/s plus 1936 ns). Sent during a
// round after the first predictor reserved its next slot, the CNM arrives at
// the next round's instant queued between the two predictors' slots. With
// one timer per predictor it lands after the first predictor's sample and
// before the second's; the ticker must reproduce that, where a round that
// never yields would sample both first.
func TestTickerYieldsToEventAheadOfSlot(t *testing.T) {
	eng := sim.NewEngine()
	cfg := switchsim.DefaultConfig()
	cfg.PFCThreshold = 50 * 1000
	idleSw := switchsim.New(eng, 100, 1, cfg, rng.New(1))
	sw := switchsim.New(eng, 101, 2, cfg, rng.New(2))
	up := &cnmProbe{}
	up.port = &fabric.Port{Eng: eng, Owner: up}
	down, quiet := newRecorder(eng, 2), newRecorder(eng, 3)
	fabric.Connect(quiet.port, idleSw.Port(0), 40*units.Gbps, 2*sim.Microsecond)
	fabric.Connect(up.port, sw.Port(0), 8*units.Gbps, 1936*sim.Nanosecond)
	fabric.Connect(down.port, sw.Port(1), 40*units.Gbps, 2*sim.Microsecond)
	sw.SetRouter(switchsim.RouterFunc(func(*switchsim.Switch, *fabric.Packet, int) switchsim.Decision {
		return switchsim.Decision{Out: 1}
	}))
	sw.Port(1).SetPaused(fabric.PrioData, true, 0)
	for k := 0; k < 100; k++ {
		up.port.Enqueue(fabric.NewData(1, uint32(k), 1000, 0, 1))
	}
	first := NewPredictor(idleSw, Params{}, []int{0}, -1, 2*sim.Microsecond)
	second := NewPredictor(sw, Params{}, []int{0}, -1, 2*sim.Microsecond)
	tick := NewTicker(eng, []*Predictor{first, second})
	cnms := 0
	up.onCNM = func() {
		cnms++
		if eng.Now()%(2*sim.Microsecond) != 0 {
			t.Fatalf("CNM at %v, off the round grid", eng.Now())
		}
		if first.Stats.Samples != second.Stats.Samples+1 {
			t.Fatalf("CNM at %v saw %d and %d samples; want it between the two predictors' samples",
				eng.Now(), first.Stats.Samples, second.Stats.Samples)
		}
	}
	eng.RunUntil(500 * sim.Microsecond)
	tick.Stop()
	if cnms < 10 || tick.Stats.Yields != uint64(cnms) {
		t.Fatalf("%d CNMs, %d yields; want one yield per CNM and at least 10", cnms, tick.Stats.Yields)
	}
}
