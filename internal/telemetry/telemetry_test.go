package telemetry

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rlb-project/rlb/internal/sim"
)

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register("a/x", func() int64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate probe name did not panic")
		}
	}()
	r.Register("a/x", func() int64 { return 2 })
}

func TestRegistryOrder(t *testing.T) {
	r := NewRegistry()
	r.Register("b", func() int64 { return 0 })
	r.Register("a", func() int64 { return 0 })
	r.Register("c", func() int64 { return 0 })
	got := r.Names()
	if len(got) != 3 || got[0] != "b" || got[1] != "a" || got[2] != "c" {
		t.Fatalf("Names() = %v, want registration order [b a c]", got)
	}
	if r.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", r.Len())
	}
}

func TestSamplerRecordsAtInterval(t *testing.T) {
	eng := sim.NewEngine()
	var v int64
	r := NewRegistry()
	r.Register("v", func() int64 { return v })
	r.Register("2v", func() int64 { return 2 * v })
	r.Events().Record(Event{Kind: PauseOn, Dev: 4})

	s := NewSampler(eng, r, 10*sim.Microsecond, 16)
	s.Start() // tick at t=0
	for i := 1; i <= 5; i++ {
		// Advance value between ticks so each sample sees a distinct state.
		eng.At(sim.Time(i)*10*sim.Microsecond-sim.Nanosecond, func() { v++ })
	}
	eng.RunUntil(50 * sim.Microsecond)
	s.Stop()

	rec := s.Recording()
	if len(rec.Times) != 6 {
		t.Fatalf("got %d ticks, want 6 (t=0..50us)", len(rec.Times))
	}
	for i, want := range []sim.Time{0, 10, 20, 30, 40, 50} {
		if rec.Times[i] != want*sim.Microsecond {
			t.Fatalf("tick %d at %v, want %dus", i, rec.Times[i], want)
		}
		if rec.Series[0][i] != int64(i) {
			t.Fatalf("probe v at tick %d = %d, want %d", i, rec.Series[0][i], i)
		}
		if rec.Series[1][i] != 2*int64(i) {
			t.Fatalf("probe 2v at tick %d = %d, want %d", i, rec.Series[1][i], 2*i)
		}
	}
	if rec.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", rec.Dropped)
	}
	if len(rec.Events) != 1 || rec.Events[0].Dev != 4 {
		t.Fatalf("Events = %v, want the one recorded PAUSE_ON", rec.Events)
	}
}

func TestSamplerStopsTicking(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.Register("z", func() int64 { return 0 })
	s := NewSampler(eng, r, sim.Microsecond, 64)
	s.Start()
	eng.RunUntil(5 * sim.Microsecond)
	s.Stop()
	n := s.Samples()
	eng.RunUntil(20 * sim.Microsecond)
	if s.Samples() != n {
		t.Fatalf("sampler recorded %d ticks after Stop (had %d)", s.Samples()-n, n)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop; the tick timer should be cancelled", eng.Pending())
	}
}

func TestSamplerCapacityDrops(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.Register("z", func() int64 { return 7 })
	s := NewSampler(eng, r, sim.Microsecond, 3)
	s.Start()
	eng.RunUntil(10 * sim.Microsecond)
	s.Stop()
	rec := s.Recording()
	if len(rec.Times) != 3 {
		t.Fatalf("recorded %d ticks, want capacity 3", len(rec.Times))
	}
	// Ticks at 0..10us inclusive = 11; 3 recorded, 8 dropped.
	if rec.Dropped != 8 {
		t.Fatalf("Dropped = %d, want 8", rec.Dropped)
	}
}

func TestWriteJSONL(t *testing.T) {
	rec := &Recording{
		Interval: 10 * sim.Microsecond,
		Names:    []string{"leaf0/shared", "host1/una"},
		Times:    []sim.Time{0, 10 * sim.Microsecond},
		Series:   [][]int64{{100, 200}, {0, 42}},
		Dropped:  1,
		Events: []Event{{At: 3 * sim.Microsecond, Kind: Recirc, Dev: 4, Port: 2, Flow: 7, Seq: 11, Aux: 1},
			{At: 4 * sim.Microsecond, Kind: WarnSet, Dev: 5, Port: 1, Aux: 3}},
		EventsDropped: 9,
	}
	var b bytes.Buffer
	if err := WriteJSONL(&b, rec); err != nil {
		t.Fatal(err)
	}
	want := `{"intervalPs":10000000,"samples":2,"dropped":1,"events":2,"eventsDropped":9,"probes":["leaf0/shared","host1/una"]}
{"tPs":0,"v":[100,0]}
{"tPs":10000000,"v":[200,42]}
{"tPs":3000000,"ev":"RECIRC","dev":4,"port":2,"flow":7,"seq":11,"aux":1}
{"tPs":4000000,"ev":"WARN_SET","dev":5,"port":1,"flow":0,"seq":0,"aux":3}
`
	if b.String() != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

func TestWriteCSV(t *testing.T) {
	rec := &Recording{
		Interval: sim.Microsecond,
		Names:    []string{"a", `we"ird,name`},
		Times:    []sim.Time{5},
		Series:   [][]int64{{1}, {-2}},
	}
	var b bytes.Buffer
	if err := WriteCSV(&b, rec); err != nil {
		t.Fatal(err)
	}
	want := "t_ps,a,\"we\"\"ird,name\"\n5,1,-2\n"
	if b.String() != want {
		t.Fatalf("CSV mismatch:\ngot:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestWriteFilePicksFormatBySuffix checks that WriteFile writes exactly
// WriteCSV's bytes for a .csv path and WriteJSONL's for any other.
func TestWriteFilePicksFormatBySuffix(t *testing.T) {
	rec := &Recording{
		Interval: sim.Microsecond,
		Names:    []string{"a", "b"},
		Times:    []sim.Time{0, sim.Microsecond},
		Series:   [][]int64{{1, 2}, {3, 4}},
		Events:   []Event{{At: 7, Kind: Recirc, Dev: 1}},
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name  string
		write func(io.Writer, *Recording) error
	}{
		{"out.csv", WriteCSV},
		{"out.jsonl", WriteJSONL},
		{"out", WriteJSONL},
	} {
		path := filepath.Join(dir, c.name)
		if err := WriteFile(path, rec); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := c.write(&want, rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", c.name, got, want.Bytes())
		}
	}
}

func TestExportEmptyRecording(t *testing.T) {
	rec := &Recording{Interval: sim.Microsecond, Names: []string{"a"}}
	var b bytes.Buffer
	if err := WriteJSONL(&b, rec); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\n"); got != 1 {
		t.Fatalf("empty recording wrote %d lines, want header only", got)
	}
}

// TestSamplerTickAllocs is the 0 allocs/op steady-state assertion: after the
// warmup ticks have populated the engine's event free list, each sampling
// tick must allocate nothing.
func TestSamplerTickAllocs(t *testing.T) {
	eng := sim.NewEngine()
	var counters [8]int64
	r := NewRegistry()
	for i := range counters {
		i := i
		r.Register("c"+string(rune('0'+i)), func() int64 { return counters[i] })
	}
	s := NewSampler(eng, r, sim.Microsecond, 1<<16)
	s.Start()
	next := sim.Time(0)
	step := func() {
		next += sim.Microsecond
		eng.RunUntil(next)
	}
	for i := 0; i < 16; i++ {
		step() // warm the event pool
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("sampler tick allocates %.2f allocs/op in steady state, want 0", avg)
	}
	s.Stop()
}

// TestEventLogKeepsFirstProperty: after n records into a log of capacity c,
// the log holds the first min(n, c) events in order and counts the rest as
// dropped.
func TestEventLogKeepsFirstProperty(t *testing.T) {
	prop := func(cRaw, nRaw uint8) bool {
		c := int(cRaw%32) + 1
		n := int(nRaw)
		l := &EventLog{buf: make([]Event, c)}
		for i := 0; i < n; i++ {
			l.Record(Event{Seq: uint32(i)})
		}
		kept := min(n, c)
		if l.n != kept || l.drop != n-kept {
			return false
		}
		for i, e := range l.buf[:l.n] {
			if e.Seq != uint32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEventLogKeepsFirstN: once a log is over-filled it holds exactly its
// first capacity events, in order, and counts every later one as dropped.
func TestEventLogKeepsFirstN(t *testing.T) {
	l := &EventLog{buf: make([]Event, 4)}
	for i := 0; i < 10; i++ {
		l.Record(Event{Kind: Recirc, Seq: uint32(i)})
	}
	if l.n != 4 || l.drop != 6 {
		t.Fatalf("kept %d dropped %d, want 4 and 6", l.n, l.drop)
	}
	for i, e := range l.buf[:l.n] {
		if e.Seq != uint32(i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i)
		}
	}
}

// TestEventLogPartialFill: a log given fewer events than its capacity keeps
// all of them, in order, and drops none.
func TestEventLogPartialFill(t *testing.T) {
	l := &EventLog{buf: make([]Event, 8)}
	for i := 0; i < 3; i++ {
		l.Record(Event{Kind: PauseOn, Dev: i})
	}
	if l.n != 3 || l.drop != 0 {
		t.Fatalf("kept %d dropped %d, want 3 and 0", l.n, l.drop)
	}
	for i, e := range l.buf[:l.n] {
		if e.Dev != i || e.Kind != PauseOn {
			t.Fatalf("event %d = %+v, want PAUSE_ON on dev %d", i, e, i)
		}
	}
}

// TestRecordEventAllocs is the 0 allocs/op assertion for the event record
// path, both while the log has room and once it is full.
func TestRecordEventAllocs(t *testing.T) {
	l := newEventLog()
	ev := Event{At: sim.Microsecond, Kind: CNMSent, Dev: 3, Port: 1, Aux: 4000}
	if avg := testing.AllocsPerRun(EventCap+100, func() { l.Record(ev) }); avg != 0 {
		t.Fatalf("recording an event allocates %.2f allocs/op, want 0", avg)
	}
	if l.drop == 0 {
		t.Fatal("log never filled; the full-log path went untested")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < NumEventKinds; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d missing name", k)
		}
	}
	if EventKind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind formatting")
	}
}

// TestEventString pins the one-line event format rlbsim -trace prints.
func TestEventString(t *testing.T) {
	got := Event{At: 5 * sim.Microsecond, Kind: Recirc, Dev: 3, Port: 12, Flow: 9, Seq: 40, Aux: 1}.String()
	want := "5us          RECIRC      dev=3    port=12  flow=9      seq=40     aux=1"
	if got != want {
		t.Fatalf("Event.String() =\n%q, want\n%q", got, want)
	}
}

func BenchmarkSamplerTick(b *testing.B) {
	eng := sim.NewEngine()
	var counters [32]int64
	r := NewRegistry()
	for i := range counters {
		i := i
		r.Register("bench/c"+string(rune('a'+i%26))+string(rune('0'+i/26)), func() int64 { return counters[i] })
	}
	// Capacity sized so long -benchtime runs wrap into the drop path rather
	// than allocating; drops follow the identical indexed code shape.
	s := NewSampler(eng, r, sim.Microsecond, 1<<20)
	s.Start()
	next := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next += sim.Microsecond
		eng.RunUntil(next)
	}
	b.StopTimer()
	s.Stop()
}
