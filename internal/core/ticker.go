package core

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/sim"
)

// TickerStats counts a Ticker's rounds.
type TickerStats struct {
	// Rounds counts completed Δt rounds; every predictor samples once per
	// round.
	Rounds uint64
}

// Ticker drives the predictors of one network: one event per Δt round samples
// them all in the order given, then re-arms Δt later, where one timer per
// predictor would dispatch an event per predictor and round. A round re-arms
// after its samples, so an event that a round queues for exactly the next
// round's instant runs before that round.
type Ticker struct {
	eng    *sim.Engine
	deltaT sim.Time
	preds  []*Predictor
	timer  sim.Timer

	Stats TickerStats
}

// NewTicker queues the first round Δt from now. The predictors must share
// one Δt.
func NewTicker(eng *sim.Engine, preds []*Predictor) *Ticker {
	t := &Ticker{eng: eng, deltaT: preds[0].params.DeltaT, preds: preds}
	for _, p := range preds {
		if p.params.DeltaT != t.deltaT {
			panic(fmt.Sprintf("core: predictor Δt %v differs from the ticker's %v", p.params.DeltaT, t.deltaT))
		}
	}
	t.timer = eng.ScheduleAfter(t.deltaT, t, sim.EventArg{})
	return t
}

// OnEvent implements sim.Handler: one round samples every predictor.
func (t *Ticker) OnEvent(sim.EventArg) {
	for _, p := range t.preds {
		p.sample()
	}
	t.Stats.Rounds++
	t.timer = t.eng.ScheduleAfter(t.deltaT, t, sim.EventArg{})
}

// Stop halts sampling, so the event queue can drain.
func (t *Ticker) Stop() { t.timer.Stop() }
