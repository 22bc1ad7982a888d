package fabric

import (
	"testing"
	"testing/quick"

	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// sink is a test Device that records arrivals.
type sink struct {
	id       int
	got      []*Packet
	gotAt    []sim.Time
	eng      *sim.Engine
	onRecv   func(p *Packet, in *Port)
	inPort   *Port
	received int
}

func (s *sink) Receive(p *Packet, in *Port) {
	s.got = append(s.got, p)
	s.gotAt = append(s.gotAt, s.eng.Now())
	s.received++
	if s.onRecv != nil {
		s.onRecv(p, in)
	}
}

func (s *sink) DevID() int { return s.id }

func pair(eng *sim.Engine, rate units.Bandwidth, delay sim.Time) (*sink, *sink, *Port, *Port) {
	a := &sink{id: 1, eng: eng}
	b := &sink{id: 2, eng: eng}
	pa := &Port{Eng: eng, Owner: a, Index: 0}
	pb := &Port{Eng: eng, Owner: b, Index: 0}
	Connect(pa, pb, rate, delay)
	a.inPort, b.inPort = pa, pb
	return a, b, pa, pb
}

func TestPacketDelivery(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 40*units.Gbps, 2*sim.Microsecond)
	pkt := NewData(1, 0, 1000, 1, 2)
	pa.Enqueue(pkt)
	eng.Run()
	if b.received != 1 {
		t.Fatalf("received %d packets", b.received)
	}
	// Arrival = serialization (200ns) + propagation (2us).
	want := 200*sim.Nanosecond + 2*sim.Microsecond
	if b.gotAt[0] != want {
		t.Fatalf("arrival at %v, want %v", b.gotAt[0], want)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	for i := 0; i < 10; i++ {
		pa.Enqueue(NewData(1, uint32(i), 500, 1, 2))
	}
	eng.Run()
	if len(b.got) != 10 {
		t.Fatalf("received %d", len(b.got))
	}
	for i, p := range b.got {
		if p.Seq != uint32(i) {
			t.Fatalf("packet %d has seq %d", i, p.Seq)
		}
	}
}

func TestControlPreemptsData(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	// Fill data queue, then enqueue a control frame; the control frame must
	// jump ahead of the queued (not yet serializing) data.
	for i := 0; i < 5; i++ {
		pa.Enqueue(NewData(1, uint32(i), 1000, 1, 2))
	}
	ctrl := NewControl(Ack, 2, 1)
	pa.Enqueue(ctrl)
	eng.Run()
	// First frame already started serializing (seq 0), so control is 2nd.
	if b.got[1].Type != Ack {
		t.Fatalf("control frame arrived at position != 1: %v", b.got[1].Type)
	}
}

func TestPauseStopsDataNotControl(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	pa.SetPaused(PrioData, true, 0)
	pa.Enqueue(NewData(1, 0, 1000, 1, 2))
	pa.Enqueue(NewControl(Ack, 1, 2))
	eng.RunUntil(100 * sim.Microsecond)
	if len(b.got) != 1 || b.got[0].Type != Ack {
		t.Fatalf("expected only control frame, got %d frames", len(b.got))
	}
	pa.SetPaused(PrioData, false, 0)
	eng.Run()
	if len(b.got) != 2 {
		t.Fatalf("data frame not released after resume: %d frames", len(b.got))
	}
	if pa.Stats.PausedFor == 0 {
		t.Fatal("paused duration not recorded")
	}
}

func TestPauseAutoExpiry(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	pa.SetPaused(PrioData, true, 5*sim.Microsecond)
	pa.Enqueue(NewData(1, 0, 1000, 1, 2))
	eng.Run()
	if len(b.got) != 1 {
		t.Fatal("packet never delivered after pause expiry")
	}
	// Released at 5us, 800ns serialization, 1us propagation.
	want := 5*sim.Microsecond + 800*sim.Nanosecond + sim.Microsecond
	if b.gotAt[0] != want {
		t.Fatalf("arrival %v, want %v", b.gotAt[0], want)
	}
}

func TestResumeCancelsPauseTimer(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	pa.SetPaused(PrioData, true, 100*sim.Microsecond)
	pa.Enqueue(NewData(1, 0, 1000, 1, 2))
	eng.After(2*sim.Microsecond, func() { pa.SetPaused(PrioData, false, 0) })
	eng.Run()
	if b.gotAt[0] > 5*sim.Microsecond {
		t.Fatalf("early resume ignored; arrival at %v", b.gotAt[0])
	}
}

func TestRepeatedPauseRefreshesDuration(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	pa.Enqueue(NewData(1, 0, 1000, 1, 2))
	// This packet starts serializing immediately; pause affects next ones.
	pa.Enqueue(NewData(1, 1, 1000, 1, 2))
	pa.SetPaused(PrioData, true, 3*sim.Microsecond)
	eng.After(2*sim.Microsecond, func() { pa.SetPaused(PrioData, true, 10*sim.Microsecond) })
	eng.Run()
	// Second packet must wait for the refreshed pause: released at 12us.
	if len(b.gotAt) != 2 {
		t.Fatalf("got %d frames", len(b.gotAt))
	}
	if b.gotAt[1] < 12*sim.Microsecond {
		t.Fatalf("refreshed pause not honored: second arrival %v", b.gotAt[1])
	}
}

func TestInFlightFrameFinishesWhenPaused(t *testing.T) {
	eng := sim.NewEngine()
	_, b, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	pa.Enqueue(NewData(1, 0, 1000, 1, 2)) // starts serializing at t=0
	eng.After(100*sim.Nanosecond, func() { pa.SetPaused(PrioData, true, 0) })
	eng.RunUntil(50 * sim.Microsecond)
	if len(b.got) != 1 {
		t.Fatal("in-flight frame should complete despite pause")
	}
}

func TestAsymmetricLink(t *testing.T) {
	eng := sim.NewEngine()
	a := &sink{id: 1, eng: eng}
	b := &sink{id: 2, eng: eng}
	pa := &Port{Eng: eng, Owner: a}
	pb := &Port{Eng: eng, Owner: b}
	ConnectAsym(pa, pb, 40*units.Gbps, 10*units.Gbps, sim.Microsecond)
	pa.Enqueue(NewData(1, 0, 1000, 1, 2))
	pb.Enqueue(NewData(2, 0, 1000, 2, 1))
	eng.Run()
	// a->b at 40G: 200ns + 1us; b->a at 10G: 800ns + 1us.
	if b.gotAt[0] != 1200*sim.Nanosecond {
		t.Fatalf("fast direction arrival %v", b.gotAt[0])
	}
	if a.gotAt[0] != 1800*sim.Nanosecond {
		t.Fatalf("slow direction arrival %v", a.gotAt[0])
	}
}

func TestQueueAccounting(t *testing.T) {
	eng := sim.NewEngine()
	_, _, pa, _ := pair(eng, units.Gbps, sim.Microsecond)
	for i := 0; i < 5; i++ {
		pa.Enqueue(NewData(1, uint32(i), 1000, 1, 2))
	}
	// One frame is in flight (serializing), 4 queued.
	if pa.QueuedFrames(PrioData) != 4 {
		t.Fatalf("QueuedFrames = %d, want 4", pa.QueuedFrames(PrioData))
	}
	if pa.QueuedBytes(PrioData) != 4000 {
		t.Fatalf("QueuedBytes = %d", pa.QueuedBytes(PrioData))
	}
	if pa.TotalQueuedBytes() != 4000 {
		t.Fatalf("TotalQueuedBytes = %d", pa.TotalQueuedBytes())
	}
	eng.Run()
	if pa.QueuedBytes(PrioData) != 0 {
		t.Fatal("queue should drain to zero")
	}
	if pa.Stats.TxFrames != 5 || pa.Stats.TxBytes != 5000 {
		t.Fatalf("stats = %+v", pa.Stats)
	}
}

func TestOnTxDoneFires(t *testing.T) {
	eng := sim.NewEngine()
	_, _, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	var done []uint32
	pa.OnTxDone = func(p *Packet) { done = append(done, p.Seq) }
	for i := 0; i < 3; i++ {
		pa.Enqueue(NewData(1, uint32(i), 500, 1, 2))
	}
	eng.Run()
	if len(done) != 3 || done[0] != 0 || done[2] != 2 {
		t.Fatalf("OnTxDone order = %v", done)
	}
}

func TestDrainTime(t *testing.T) {
	eng := sim.NewEngine()
	_, _, pa, _ := pair(eng, 10*units.Gbps, sim.Microsecond)
	pa.SetPaused(PrioData, true, 0)
	for i := 0; i < 10; i++ {
		pa.Enqueue(NewData(1, uint32(i), 1000, 1, 2))
	}
	// 10 KB at 10 Gb/s = 8us.
	if got := pa.DrainTime(); got != 8*sim.Microsecond {
		t.Fatalf("DrainTime = %v, want 8us", got)
	}
}

func TestPacketFIFOProperty(t *testing.T) {
	// Property: any push/pop interleaving preserves FIFO order and byte sum.
	prop := func(ops []uint8) bool {
		var q packetFIFO
		next, expect := uint32(0), uint32(0)
		bytes := 0
		for _, op := range ops {
			if op%3 != 0 { // push twice as often as pop
				p := NewData(1, next, int(op)+1, 1, 2)
				next++
				bytes += p.Size
				q.Push(p)
			} else if p := q.Pop(); p != nil {
				if p.Seq != expect {
					return false
				}
				expect++
				bytes -= p.Size
			}
			if q.Bytes() != bytes || q.Len() != int(next-expect) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketFIFOCompaction(t *testing.T) {
	var q packetFIFO
	for i := 0; i < 1000; i++ {
		q.Push(NewData(1, uint32(i), 10, 1, 2))
		if i%2 == 1 {
			q.Pop()
			q.Pop()
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if q.Peek() != nil || q.Pop() != nil {
		t.Fatal("empty queue returned a packet")
	}
}

func TestPacketTypeString(t *testing.T) {
	names := map[PacketType]string{
		Data: "DATA", Ack: "ACK", Nak: "NAK", CNP: "CNP",
		Pause: "PAUSE", Resume: "RESUME", CNM: "CNM",
	}
	for pt, want := range names {
		if pt.String() != want {
			t.Errorf("%d.String() = %q, want %q", pt, pt.String(), want)
		}
	}
	if PacketType(99).String() != "PacketType(99)" {
		t.Error("unknown type formatting wrong")
	}
}
