package core

import (
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/flatmap"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
)

// fakeView is a scriptable lb.View.
type fakeView struct {
	n      int
	queues []int
	delays []sim.Time
	now    sim.Time
	rng    *rng.Source
}

func newFakeView(n int) *fakeView {
	return &fakeView{n: n, queues: make([]int, n), delays: make([]sim.Time, n), rng: rng.New(1)}
}

func (f *fakeView) NumPaths() int                              { return f.n }
func (f *fakeView) QueueBytes(i int) int                       { return f.queues[i] }
func (f *fakeView) PathDelay(i int, _ *fabric.Packet) sim.Time { return f.delays[i] }
func (f *fakeView) Now() sim.Time                              { return f.now }
func (f *fakeView) Rng() *rng.Source                           { return f.rng }

// rankedChooser prefers paths in a fixed order, honoring exclusion — a
// deterministic stand-in for any base LB scheme.
type rankedChooser struct{ order []int }

func (r rankedChooser) Name() string { return "ranked" }
func (r rankedChooser) Choose(v lb.View, pkt *fabric.Packet, exclude lb.PathSet) int {
	for _, p := range r.order {
		if !exclude.Has(p) {
			return p
		}
	}
	return r.order[0]
}

func testAgent(n int) *Agent {
	return NewAgent(rankedChooser{order: seq(n)}, Params{}, 0, n,
		func(hostID int) int { return hostID / 10 })
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// pkt builds a data packet; distinct destinations get distinct flow ids
// (flow state in the agent is per-flow, and a real flow has one destination).
func pkt(dst int) *fabric.Packet { return fabric.NewData(uint32(dst), 0, 1000, 0, dst) }

// The Qth range and clamping spot checks formerly here grew into the
// table-driven boundary suite in qth_table_test.go.

func TestNormalizeFillsDefaults(t *testing.T) {
	p := Params{}.Normalize()
	if p.DeltaT != 2*sim.Microsecond || p.MaxRecirc != 8 || p.Trc != sim.Microsecond {
		t.Fatalf("defaults wrong: %+v", p)
	}
	// Explicit values survive.
	p2 := Params{DeltaT: 5 * sim.Microsecond}.Normalize()
	if p2.DeltaT != 5*sim.Microsecond {
		t.Fatal("explicit DeltaT overwritten")
	}
}

func TestPickNoWarningUsesOptimal(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	d := a.Pick(v, pkt(5))
	if d.Recirculate || d.Uplink != 0 {
		t.Fatalf("decision = %+v, want optimal path 0", d)
	}
	if a.Stats.PicksWarned != 0 {
		t.Fatal("spurious warned pick")
	}
}

func warn(a *Agent, uplink, dstLeaf int, now sim.Time) {
	a.warned[uplink].SetGrow(dstLeaf+1, now+a.Params.WarnExpiry)
}

func TestPickWarnedSmallGapReroutes(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	// Path 0 warned; path 1 has nearly equal delay -> take suboptimal.
	warn(a, 0, -1, v.now)
	v.delays = []sim.Time{10 * sim.Microsecond, 10*sim.Microsecond + 100*sim.Nanosecond, 50 * sim.Microsecond, 50 * sim.Microsecond}
	d := a.Pick(v, pkt(5))
	if d.Recirculate || d.Uplink != 1 {
		t.Fatalf("decision = %+v, want reroute to 1", d)
	}
	if a.Stats.Reroutes != 1 {
		t.Fatalf("Reroutes = %d", a.Stats.Reroutes)
	}
}

func TestPickWarnedLargeGapRecirculates(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	// Path 0 warned but far faster than the alternative: wait on the switch.
	warn(a, 0, -1, v.now)
	v.delays = []sim.Time{5 * sim.Microsecond, 50 * sim.Microsecond, 60 * sim.Microsecond, 70 * sim.Microsecond}
	d := a.Pick(v, pkt(5))
	if !d.Recirculate {
		t.Fatalf("decision = %+v, want recirculation", d)
	}
	if a.Stats.Recircs != 1 {
		t.Fatalf("Recircs = %d", a.Stats.Recircs)
	}
}

func TestPickRecircBudgetExhaustedReroutes(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	warn(a, 0, -1, v.now)
	// Gap (20us) is below the blocking estimate (WarnExpiry), so the detour
	// is still worthwhile once waiting is off the table.
	v.delays = []sim.Time{5 * sim.Microsecond, 25 * sim.Microsecond, 60 * sim.Microsecond, 70 * sim.Microsecond}
	p := pkt(5)
	p.Recirc = a.Params.MaxRecirc // budget used up
	d := a.Pick(v, p)
	if d.Recirculate {
		t.Fatal("recirculated past MaxRecirc")
	}
	if d.Uplink != 1 {
		t.Fatalf("fell back to %d, want suboptimal 1", d.Uplink)
	}
}

func TestPickStaysWhenDetourCostsMoreThanBlocking(t *testing.T) {
	a := testAgent(4)
	a.Params.DisableRecirculation = true
	v := newFakeView(4)
	warn(a, 0, -1, v.now)
	// Every alternative is slower than the expected blocking time: ride out
	// the warning on the optimal path.
	v.delays = []sim.Time{5 * sim.Microsecond, 500 * sim.Microsecond, 600 * sim.Microsecond, 700 * sim.Microsecond}
	d := a.Pick(v, pkt(5))
	if d.Recirculate || d.Uplink != 0 {
		t.Fatalf("decision = %+v, want stay on 0", d)
	}
	if a.Stats.StayCheaper != 1 {
		t.Fatalf("StayCheaper = %d", a.Stats.StayCheaper)
	}
}

func TestPickDisableRecirculation(t *testing.T) {
	a := testAgent(4)
	a.Params.DisableRecirculation = true
	v := newFakeView(4)
	warn(a, 0, -1, v.now)
	v.delays = []sim.Time{5 * sim.Microsecond, 15 * sim.Microsecond, 600 * sim.Microsecond, 700 * sim.Microsecond}
	d := a.Pick(v, pkt(5))
	if d.Recirculate {
		t.Fatal("recirculated despite ablation flag")
	}
	if d.Uplink != 1 {
		t.Fatalf("Uplink = %d, want 1", d.Uplink)
	}
}

func TestPickChainsPastMultipleWarnedPaths(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	// Paths 0,1,2 warned, equal delays -> land on 3.
	warn(a, 0, -1, v.now)
	warn(a, 1, -1, v.now)
	warn(a, 2, -1, v.now)
	d := a.Pick(v, pkt(5))
	if d.Recirculate || d.Uplink != 3 {
		t.Fatalf("decision = %+v, want path 3", d)
	}
}

func TestPickAllWarnedFallsBack(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	for i := 0; i < 4; i++ {
		warn(a, i, -1, v.now)
	}
	d := a.Pick(v, pkt(5))
	if d.Recirculate {
		t.Fatal("recirculated with every path warned")
	}
	if a.Stats.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d", a.Stats.Fallbacks)
	}
}

func TestWarningExpiry(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	warn(a, 0, -1, v.now)
	v.now += a.Params.WarnExpiry + sim.Nanosecond
	d := a.Pick(v, pkt(5))
	if d.Uplink != 0 {
		t.Fatalf("expired warning still honored: %+v", d)
	}
}

func TestWarningDstLeafScoping(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	// Warning scoped to destination leaf 2 (hosts 20-29).
	warn(a, 0, 2, v.now)
	if d := a.Pick(v, pkt(25)); d.Uplink == 0 && !d.Recirculate {
		t.Fatal("scoped warning ignored for matching leaf")
	}
	if d := a.Pick(v, pkt(35)); d.Uplink != 0 {
		t.Fatalf("warning for leaf 2 affected leaf 3 traffic: %+v", d)
	}
}

func TestWildcardWarningMatchesAllLeaves(t *testing.T) {
	a := testAgent(4)
	v := newFakeView(4)
	warn(a, 0, -1, v.now)
	if d := a.Pick(v, pkt(25)); d.Uplink == 0 && !d.Recirculate {
		t.Fatal("wildcard warning ignored")
	}
	if d := a.Pick(v, pkt(35)); d.Uplink == 0 && !d.Recirculate {
		t.Fatal("wildcard warning ignored for other leaf")
	}
}

func TestWarnedExpiresByComparison(t *testing.T) {
	a := testAgent(2)
	warn(a, 0, 3, 0)
	if !a.Warned(0, 3, sim.Microsecond) {
		t.Fatal("live warning not reported")
	}
	if a.Warned(0, 3, sim.Second) {
		t.Fatal("expired warning reported")
	}
	// Expiry is a comparison against the stamp, not a deletion: the slot
	// keeps its stamp and simply stops matching, and re-warning revives it.
	if a.warned[0].Get(4) == sim.Time(flatmap.Never) {
		t.Fatal("expired stamp was cleared; aging should be compare-only")
	}
	warn(a, 0, 3, 2*sim.Second)
	if !a.Warned(0, 3, 2*sim.Second+sim.Microsecond) {
		t.Fatal("re-warned slot not live again")
	}
}
