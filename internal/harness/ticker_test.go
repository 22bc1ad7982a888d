package harness

import (
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
)

// collisionSpec is a Hermes+RLB repeated incast at 4x4/4 @ 8 Gb/s whose link
// delay, 1936 ns, makes a 64 B CNM take exactly Δt = 2 µs from one switch to
// the next (64 ns to serialize plus the delay). A CNM sent during one round
// is therefore delivered at the instant of the next round, queued between
// two predictors' slots, and the ticker must yield to it.
func collisionSpec() spec.Spec {
	return spec.Spec{
		SimSeed: 1, Leaves: 4, Spines: 4, HostsPerLeaf: 4, LinkGbps: 8, LinkDelayNs: 1936,
		Scheme: "hermes+rlb", DurationUs: 200, DrainUs: 1000,
		IncastDegree: 8, IncastKB: 1000, IncastReps: 4,
	}
}

// collisionFingerprint is collisionSpec's fingerprint with one timer per
// predictor, before the ticker existed.
const collisionFingerprint = "flows=32 done=32 sent=6736 rcvd=6736 ooo=1555 pauses=1898 recircs=553 drops=0 " +
	"agents={WarningsRcvd:3168 PicksTotal:6914 PicksWarned:2368 Reroutes:78 Recircs:245 Fallbacks:3 OrderStays:2022 OrderRecircs:308 DivertSticky:0 StayCheaper:20}" +
	"|1@2813672112|2@2794778464|3@2822227006|4@2869565884|5@1675701040|6@2860196864|7@2861205823|8@599872000" +
	"|9@6839675898|10@4792872000|11@6810924648|12@6936537939|13@6833562479|14@6977245402|15@5383391128|16@6877978113" +
	"|17@10860833498|18@10839489830|19@11050723252|20@10766102790|21@11011988032|22@10861982132|23@10724041633|24@10385305195" +
	"|25@14865022538|26@12506872000|27@14745877573|28@14632658764|29@14801552004|30@14818359121|31@14425182614|32@14684307411"

// TestTickerKeepsPerPredictorOrder runs the collision spec through the one
// ticker and checks it replays the per-predictor-timer run exactly, that it
// had to yield to get there, that every predictor sampled once per round,
// and that nothing stays queued once RLB stops. The same spec at the default
// 2 µs link delay has no CNM landing on a round, so it must never yield.
// (The fingerprint alone cannot catch a ticker that ignores the order: a
// batch that samples everything in one event also matches it. The slot
// property test in internal/sim pins the order.)
func TestTickerKeepsPerPredictorOrder(t *testing.T) {
	plain := collisionSpec()
	plain.LinkDelayNs = 0
	for _, c := range []struct {
		name      string
		s         spec.Spec
		wantYield bool
	}{
		{"collision", collisionSpec(), true},
		{"default delay", plain, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := Run(MustCompile(c.s))
			n := res.Network
			if c.wantYield {
				if fp := Fingerprint(res); fp != collisionFingerprint {
					t.Errorf("fingerprint moved:\n got %s\nwant %s", fp, collisionFingerprint)
				}
			}
			st := n.Ticker.Stats
			t.Logf("%d rounds, %d yields", st.Rounds, st.Yields)
			if yielded := st.Yields > 0; yielded != c.wantYield {
				t.Errorf("ticker yielded %d times in %d rounds; want yields: %v", st.Yields, st.Rounds, c.wantYield)
			}
			for i, p := range n.Predictors {
				if p.Stats.Samples != st.Rounds {
					t.Errorf("predictor %d sampled %d times in %d rounds", i, p.Stats.Samples, st.Rounds)
				}
			}
			n.Eng.Run()
			if n.Eng.Pending() != 0 {
				t.Errorf("%d events pending after StopRLB and a full drain", n.Eng.Pending())
			}
		})
	}
}
