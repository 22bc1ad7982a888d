package lb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
)

// TestChoosersAlwaysInRange drives every scheme with randomized packets,
// queue states and exclusion masks; the chosen path must always be valid.
func TestChoosersAlwaysInRange(t *testing.T) {
	factories := map[string]Factory{
		"ecmp":    NewECMP(),
		"presto":  NewPresto(64*1000, 1000),
		"letflow": NewLetFlow(100 * sim.Microsecond),
		"drill":   NewDRILL(2, 1),
		"hermes":  NewHermes(1000, 0),
	}
	for name, mk := range factories {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			c := mk()
			v := newFakeView(6)
			v.rng = rng.New(99)
			prop := func(flow uint32, seq uint16, excl uint8, q0, q1 uint16, adv uint8) bool {
				v.now += sim.Time(adv) * sim.Microsecond
				v.queues[flow%6] = int(q0)
				v.queues[(flow+3)%6] = int(q1)
				v.delays[flow%6] = sim.Time(q0) * sim.Microsecond
				exclude := PathSet(excl) & 0x3f
				got := c.Choose(v, dataPkt(flow%16, uint32(seq)), exclude)
				if got < 0 || got >= 6 {
					return false
				}
				// When not everything is excluded, the choice must respect it.
				if exclude.Count() < 6 && exclude.Has(got) {
					return false
				}
				return true
			}
			// A fixed seed makes a failure replay; quick otherwise seeds from
			// the clock.
			cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCommitIdempotent checks Commit with the current path is a no-op and
// with a new path moves exactly once.
func TestCommitIdempotent(t *testing.T) {
	v := newFakeView(4)
	h := NewHermes(1000, 0)().(*Hermes)
	p0 := h.Choose(v, dataPkt(1, 0), 0)
	h.Commit(dataPkt(1, 1), p0) // same path: no-op
	if st, _ := h.flows.Get(1); st.lastMoveSeq != 0 {
		t.Fatal("no-op commit reset hysteresis")
	}
	h.Commit(dataPkt(1, 5), (p0+1)%4)
	if st, _ := h.flows.Get(1); st.path != (p0+1)%4 || st.lastMoveSeq != 5 {
		t.Fatal("commit did not move flow state")
	}
	// Commit for an unknown flow must not panic or create state.
	h.Commit(dataPkt(42, 0), 2)
	if h.flows.Has(42) {
		t.Fatal("commit created state for unknown flow")
	}
}

func TestLetFlowCommit(t *testing.T) {
	v := newFakeView(4)
	l := NewLetFlow(100 * sim.Microsecond)().(*LetFlow)
	p0 := l.Choose(v, dataPkt(1, 0), 0)
	np := (p0 + 1) % 4
	l.Commit(dataPkt(1, 1), np)
	if got := l.Choose(v, dataPkt(1, 2), 0); got != np {
		t.Fatalf("flowlet did not follow commit: %d want %d", got, np)
	}
	l.Commit(dataPkt(9, 0), 1) // unknown flow: no-op, no panic
}

func TestPrestoSpreadUnderExclusion(t *testing.T) {
	// With one path excluded, consecutive cells must still spread over the
	// remaining paths rather than herd onto one.
	v := newFakeView(4)
	p := NewPresto(64*1000, 1000)()
	ex := PathSet(0).With(2)
	used := map[int]bool{}
	for f := uint32(0); f < 16; f++ {
		used[p.Choose(v, dataPkt(f, 0), ex)] = true
	}
	if len(used) != 3 {
		t.Fatalf("excluded spread covers %d paths, want 3", len(used))
	}
	if used[2] {
		t.Fatal("excluded path used")
	}
}
