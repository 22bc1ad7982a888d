package lb

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
)

// fakeView is a scriptable View for unit tests.
type fakeView struct {
	n      int
	queues []int
	delays []sim.Time
	now    sim.Time
	rng    *rng.Source
}

func newFakeView(n int) *fakeView {
	return &fakeView{n: n, queues: make([]int, n), delays: make([]sim.Time, n), rng: rng.New(42)}
}

func (f *fakeView) NumPaths() int                                { return f.n }
func (f *fakeView) QueueBytes(i int) int                         { return f.queues[i] }
func (f *fakeView) PathDelay(i int, pkt *fabric.Packet) sim.Time { return f.delays[i] }
func (f *fakeView) Now() sim.Time                                { return f.now }
func (f *fakeView) Rng() *rng.Source                             { return f.rng }

func dataPkt(flow uint32, seq uint32) *fabric.Packet {
	return fabric.NewData(flow, seq, fabric.DefaultMTU, 0, 1)
}

func TestPathSet(t *testing.T) {
	var s PathSet
	s = s.With(3).With(7)
	if !s.Has(3) || !s.Has(7) || s.Has(0) {
		t.Fatalf("set membership wrong: %b", s)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestPathSetProperty(t *testing.T) {
	prop := func(idx []uint8) bool {
		var s PathSet
		uniq := map[int]bool{}
		for _, i := range idx {
			p := int(i % 64)
			s = s.With(p)
			uniq[p] = true
		}
		if s.Count() != len(uniq) {
			return false
		}
		for p := range uniq {
			if !s.Has(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECMPStableAndSpread(t *testing.T) {
	v := newFakeView(8)
	e := NewECMP()()
	if e.Name() != "ecmp" {
		t.Fatal("name")
	}
	// Same flow always maps to the same path.
	p0 := e.Choose(v, dataPkt(1, 0), 0)
	for seq := uint32(1); seq < 100; seq++ {
		if e.Choose(v, dataPkt(1, seq), 0) != p0 {
			t.Fatal("ECMP moved a flow")
		}
	}
	// Many flows spread across paths.
	used := map[int]bool{}
	for f := uint32(0); f < 200; f++ {
		used[e.Choose(v, dataPkt(f, 0), 0)] = true
	}
	if len(used) < 6 {
		t.Fatalf("ECMP spread too narrow: %d/8 paths", len(used))
	}
}

func TestECMPHonorsExclude(t *testing.T) {
	v := newFakeView(4)
	e := NewECMP()()
	for f := uint32(0); f < 50; f++ {
		got := e.Choose(v, dataPkt(f, 0), PathSet(0).With(2))
		if got == 2 {
			t.Fatal("excluded path chosen")
		}
	}
}

func TestPrestoRoundRobinAcrossCells(t *testing.T) {
	v := newFakeView(4)
	p := NewPresto(64*1000, 1000)() // 64 packets per cell
	first := p.Choose(v, dataPkt(1, 0), 0)
	// All packets within the first cell stay put.
	for seq := uint32(1); seq < 64; seq++ {
		if got := p.Choose(v, dataPkt(1, seq), 0); got != first {
			t.Fatalf("cell split at seq %d: %d != %d", seq, got, first)
		}
	}
	// The next cell advances exactly one path.
	if got := p.Choose(v, dataPkt(1, 64), 0); got != (first+1)%4 {
		t.Fatalf("cell 1 on path %d, want %d", got, (first+1)%4)
	}
	if got := p.Choose(v, dataPkt(1, 200), 0); got != (first+3)%4 {
		t.Fatalf("cell 3 on path %d, want %d", got, (first+3)%4)
	}
}

func TestPrestoNewFlowsRotate(t *testing.T) {
	v := newFakeView(4)
	p := NewPresto(64*1000, 1000)()
	a := p.Choose(v, dataPkt(1, 0), 0)
	b := p.Choose(v, dataPkt(2, 0), 0)
	c := p.Choose(v, dataPkt(3, 0), 0)
	if b != (a+1)%4 || c != (a+2)%4 {
		t.Fatalf("flow starts not round-robin: %d %d %d", a, b, c)
	}
}

func TestPrestoExclude(t *testing.T) {
	v := newFakeView(2)
	p := NewPresto(64*1000, 1000)()
	got := p.Choose(v, dataPkt(1, 0), PathSet(0).With(0))
	if got != 1 {
		t.Fatalf("exclude ignored: %d", got)
	}
}

func TestLetFlowKeepsFlowletTogether(t *testing.T) {
	v := newFakeView(8)
	l := NewLetFlow(100 * sim.Microsecond)()
	p0 := l.Choose(v, dataPkt(1, 0), 0)
	for i := 1; i < 50; i++ {
		v.now += sim.Microsecond // gaps well below timeout
		if got := l.Choose(v, dataPkt(1, uint32(i)), 0); got != p0 {
			t.Fatal("flowlet split without gap")
		}
	}
}

func TestLetFlowReroutesAfterGap(t *testing.T) {
	moved := 0
	for trial := 0; trial < 50; trial++ {
		v := newFakeView(8)
		v.rng = rng.New(uint64(trial))
		l := NewLetFlow(100 * sim.Microsecond)()
		p0 := l.Choose(v, dataPkt(1, 0), 0)
		v.now += 200 * sim.Microsecond
		if l.Choose(v, dataPkt(1, 1), 0) != p0 {
			moved++
		}
	}
	// New flowlets pick uniformly at random: ~7/8 of trials move.
	if moved < 25 {
		t.Fatalf("flowlets almost never moved after gap: %d/50", moved)
	}
}

func TestLetFlowExcludeIsHypothetical(t *testing.T) {
	v := newFakeView(2)
	l := NewLetFlow(100 * sim.Microsecond)()
	var ex PathSet
	p0 := l.Choose(v, dataPkt(1, 0), 0)
	ex = ex.With(p0)
	got := l.Choose(v, dataPkt(1, 1), ex)
	if got == p0 {
		t.Fatal("excluded flowlet path returned")
	}
	// The probe must not move the flowlet: the caller (RLB) owns
	// consistency for diverted packets.
	if l.Choose(v, dataPkt(1, 2), 0) != p0 {
		t.Fatal("hypothetical exclusion moved the flowlet")
	}
}

func TestDRILLPrefersShortQueue(t *testing.T) {
	v := newFakeView(8)
	for i := range v.queues {
		v.queues[i] = 100000
	}
	v.queues[5] = 0
	d := NewDRILL(2, 1)()
	counts := map[int]int{}
	for i := 0; i < 500; i++ {
		counts[d.Choose(v, dataPkt(uint32(i), 0), 0)]++
	}
	if counts[5] < 300 {
		t.Fatalf("DRILL rarely found the empty queue: %v", counts)
	}
}

func TestDRILLMemoryConverges(t *testing.T) {
	v := newFakeView(16)
	for i := range v.queues {
		v.queues[i] = 50000
	}
	v.queues[3] = 0
	d := NewDRILL(1, 1)() // with d=1, memory is what finds/keeps the best
	found := 0
	for i := 0; i < 200; i++ {
		if d.Choose(v, dataPkt(uint32(i), 0), 0) == 3 {
			found++
		}
	}
	if found < 50 {
		t.Fatalf("DRILL memory ineffective: %d/200 on best port", found)
	}
}

func TestDRILLExclude(t *testing.T) {
	v := newFakeView(4)
	v.queues[0] = 0
	v.queues[1], v.queues[2], v.queues[3] = 10, 10, 10
	d := NewDRILL(2, 1)()
	ex := PathSet(0).With(0)
	for i := 0; i < 100; i++ {
		if d.Choose(v, dataPkt(uint32(i), 0), ex) == 0 {
			t.Fatal("DRILL chose excluded path")
		}
	}
}

func TestHermesPicksBestInitially(t *testing.T) {
	v := newFakeView(4)
	v.delays = []sim.Time{90 * sim.Microsecond, 5 * sim.Microsecond, 70 * sim.Microsecond, 80 * sim.Microsecond}
	h := NewHermes(1000, 0)()
	if got := h.Choose(v, dataPkt(1, 0), 0); got != 1 {
		t.Fatalf("initial path %d, want 1", got)
	}
}

func TestHermesNoGratuitousRerouting(t *testing.T) {
	v := newFakeView(4)
	v.delays = []sim.Time{5 * sim.Microsecond, 4 * sim.Microsecond, 5 * sim.Microsecond, 5 * sim.Microsecond}
	h := NewHermes(1000, 0)()
	p0 := h.Choose(v, dataPkt(1, 0), 0)
	// All paths healthy: flow must not move even if slightly better exists.
	v.delays[(p0+1)%4] = sim.Microsecond
	for seq := uint32(1); seq < 500; seq++ {
		if h.Choose(v, dataPkt(1, seq), 0) != p0 {
			t.Fatal("Hermes rerouted a healthy flow")
		}
	}
}

func TestHermesDeliberateReroute(t *testing.T) {
	v := newFakeView(4)
	h := NewHermes(1000, 0)()
	p0 := h.Choose(v, dataPkt(1, 0), 0)
	// Current path turns bad; a clearly good alternative exists. The flow
	// must have sent MinBytes (64 KB = 64 packets) first.
	for i := range v.delays {
		v.delays[i] = 200 * sim.Microsecond
	}
	alt := (p0 + 1) % 4
	v.delays[alt] = sim.Microsecond
	early := h.Choose(v, dataPkt(1, 10), 0)
	if early != p0 {
		t.Fatal("Hermes moved before MinBytes progressed")
	}
	late := h.Choose(v, dataPkt(1, 100), 0)
	if late != alt {
		t.Fatalf("Hermes did not take the deliberate reroute: %d want %d", late, alt)
	}
	// And it sticks afterwards.
	if h.Choose(v, dataPkt(1, 101), 0) != alt {
		t.Fatal("Hermes did not stick after moving")
	}
}

func TestHermesNoRerouteWithoutGoodCandidate(t *testing.T) {
	v := newFakeView(4)
	h := NewHermes(1000, 0)()
	p0 := h.Choose(v, dataPkt(1, 0), 0)
	for i := range v.delays {
		v.delays[i] = 200 * sim.Microsecond // everything bad
	}
	if h.Choose(v, dataPkt(1, 100), 0) != p0 {
		t.Fatal("Hermes moved to an equally bad path")
	}
}

func TestHermesExcludeIsHypothetical(t *testing.T) {
	v := newFakeView(4)
	h := NewHermes(1000, 0)()
	p0 := h.Choose(v, dataPkt(1, 0), 0)
	got := h.Choose(v, dataPkt(1, 1), PathSet(0).With(p0))
	if got == p0 {
		t.Fatal("exclusion ignored")
	}
	// Probing must not move the flow.
	if h.Choose(v, dataPkt(1, 2), 0) != p0 {
		t.Fatal("hypothetical exclusion moved the flow")
	}
}

// TestHermesStaysWhenOnlyCurrentPathAllowed excludes every path but the
// flow's current one while that path is congested and the excluded ones look
// good. Hermes finds no candidate outside the exclusion, so its fallback
// draws a random path; the flow must stay put rather than follow the draw
// onto a path the caller excluded.
func TestHermesStaysWhenOnlyCurrentPathAllowed(t *testing.T) {
	v := newFakeView(4)
	h := NewHermes(1000, 0)()
	p0 := h.Choose(v, dataPkt(1, 0), 0)
	var others PathSet
	for i := range v.delays {
		if i != p0 {
			others = others.With(i)
		}
		v.delays[i] = sim.Microsecond
	}
	v.delays[p0] = 200 * sim.Microsecond
	for seq := uint32(100); seq < 200; seq++ {
		if got := h.Choose(v, dataPkt(1, seq), others); got != p0 {
			t.Fatalf("seq %d: chose excluded path %d, want the current path %d", seq, got, p0)
		}
	}
}

func TestAllChoosersRespectExhaustiveExclusion(t *testing.T) {
	// With every path excluded, choosers must still return a valid index.
	factories := map[string]Factory{
		"ecmp":    NewECMP(),
		"presto":  NewPresto(64*1000, 1000),
		"letflow": NewLetFlow(100 * sim.Microsecond),
		"drill":   NewDRILL(2, 1),
		"hermes":  NewHermes(1000, 0),
	}
	all := PathSet(0)
	for i := 0; i < 4; i++ {
		all = all.With(i)
	}
	for name, f := range factories {
		c := f()
		v := newFakeView(4)
		got := c.Choose(v, dataPkt(1, 0), all)
		if got < 0 || got >= 4 {
			t.Errorf("%s returned invalid path %d under full exclusion", name, got)
		}
	}
}

func TestPlainPolicyNeverRecirculates(t *testing.T) {
	v := newFakeView(4)
	p := PlainPolicy{Chooser: NewECMP()()}
	for f := uint32(0); f < 50; f++ {
		d := p.Pick(v, dataPkt(f, 0))
		if d.Recirculate {
			t.Fatal("plain policy recirculated")
		}
		if d.Uplink < 0 || d.Uplink >= 4 {
			t.Fatalf("invalid uplink %d", d.Uplink)
		}
	}
}

func TestFirstOutside(t *testing.T) {
	if got := firstOutside(2, 4, 0); got != 2 {
		t.Fatalf("no exclusion: %d", got)
	}
	if got := firstOutside(2, 4, PathSet(0).With(2).With(3)); got != 0 {
		t.Fatalf("wraparound: %d", got)
	}
	full := PathSet(0).With(0).With(1).With(2).With(3)
	if got := firstOutside(1, 4, full); got != 1 {
		t.Fatalf("full exclusion should return start: %d", got)
	}
}

// TestSchemesTable pins the scheme table: the canonical order (the fuzz
// corpus indexes into it), each entry's paper configuration, chooser names
// that match the table, and lookup by name.
func TestSchemesTable(t *testing.T) {
	const d = 2 * sim.Microsecond
	want := []struct {
		name string
		cfg  Chooser
	}{
		{"ecmp", ECMP{}},
		{"presto", &Presto{CellBytes: 64 * 1000, MTU: fabric.DefaultMTU}},
		{"letflow", &LetFlow{Gap: 50 * sim.Microsecond}},
		{"hermes", &Hermes{DelayGood: 2*d + 10*sim.Microsecond, DelayBad: 2*d + 40*sim.Microsecond,
			Gain: 8 * sim.Microsecond, MinBytes: 64 * 1000, MTU: fabric.DefaultMTU}},
		{"drill", &DRILL{D: 2, M: 1}},
		{"conga", &CONGA{Gap: 50 * sim.Microsecond}},
	}
	if len(Schemes) != len(want) {
		t.Fatalf("%d schemes, want %d", len(Schemes), len(want))
	}
	for i, w := range want {
		s := Schemes[i]
		if s.Name != w.name {
			t.Fatalf("Schemes[%d] = %q, want %q", i, s.Name, w.name)
		}
		c := s.New(d)()
		if c.Name() != s.Name {
			t.Errorf("%s: chooser is named %q", s.Name, c.Name())
		}
		if !reflect.DeepEqual(c, w.cfg) {
			t.Errorf("%s: configured as %+v, want %+v", s.Name, c, w.cfg)
		}
		if got, ok := SchemeByName(s.Name); !ok || got.Name != s.Name {
			t.Errorf("SchemeByName(%q) = %q, %v", s.Name, got.Name, ok)
		}
	}
	if _, ok := SchemeByName("drill+rlb"); ok {
		t.Error("SchemeByName accepted a +rlb name; the suffix is the spec layer's")
	}
}
