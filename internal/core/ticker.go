package core

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/sim"
)

// TickerStats counts a Ticker's rounds and yields.
type TickerStats struct {
	// Rounds counts completed Δt rounds; every predictor samples once per
	// round.
	Rounds uint64
	// Yields counts the times a round paused so that another event, queued
	// ahead of the next predictor's slot, could run first.
	Yields uint64
}

// Ticker drives the predictors of one network: one event per Δt round samples
// them all in the order given, where one timer per predictor would dispatch
// an event per predictor and round.
//
// Each sample keeps its exact place in the engine's (at, seq) event order:
// right after a predictor samples, it reserves the slot its own timer would
// have taken for the next round (sim.Engine.Reserve), and the round only
// moves on to the next predictor while no other event is queued ahead of that
// predictor's slot. Otherwise the round yields: it queues itself into that
// slot and resumes there. So every event, sample and CNM happens in the order
// per-predictor timers would produce.
type Ticker struct {
	eng    *sim.Engine
	deltaT sim.Time
	preds  []*Predictor
	// next is the predictor the queued event resumes the round at.
	next  int
	timer sim.Timer

	Stats TickerStats
}

// NewTicker reserves every predictor's first slot, Δt from now, in the order
// given, and queues the first round. The predictors must share one Δt.
func NewTicker(eng *sim.Engine, preds []*Predictor) *Ticker {
	t := &Ticker{eng: eng, deltaT: preds[0].params.DeltaT, preds: preds}
	at := eng.Now() + t.deltaT
	for _, p := range preds {
		if p.params.DeltaT != t.deltaT {
			panic(fmt.Sprintf("core: predictor Δt %v differs from the ticker's %v", p.params.DeltaT, t.deltaT))
		}
		p.slot = eng.Reserve(at)
	}
	t.timer = eng.ScheduleSlot(preds[0].slot, t, sim.EventArg{})
	return t
}

// OnEvent implements sim.Handler: it runs the round from predictor next on.
func (t *Ticker) OnEvent(sim.EventArg) {
	next := t.eng.Now() + t.deltaT
	// Whatever the round schedules keys after all of its slots, so when
	// nothing is queued ahead of the last slot, nothing will be ahead of any.
	clear := !t.eng.QueuedBefore(t.preds[len(t.preds)-1].slot)
	for i := t.next; i < len(t.preds); i++ {
		p := t.preds[i]
		if !clear && i > t.next && t.eng.QueuedBefore(p.slot) {
			t.next = i
			t.Stats.Yields++
			t.timer = t.eng.ScheduleSlot(p.slot, t, sim.EventArg{})
			return
		}
		p.sample()
		p.slot = t.eng.Reserve(next)
	}
	t.next = 0
	t.Stats.Rounds++
	t.timer = t.eng.ScheduleSlot(t.preds[0].slot, t, sim.EventArg{})
}

// Stop halts sampling, so the event queue can drain.
func (t *Ticker) Stop() { t.timer.Stop() }
