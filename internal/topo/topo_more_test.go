package topo

import (
	"testing"
	"testing/quick"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

func TestPathDelayReflectsQueues(t *testing.T) {
	p := tiny()
	n := Build(p)
	view := n.views[0]
	pkt := fabric.NewData(1, 0, 1000, 0, 5) // leaf 0 -> leaf 1
	base := view.PathDelay(0, pkt)
	if base < 2*p.LinkDelay {
		t.Fatalf("empty-fabric path delay %v below propagation floor", base)
	}
	// Stuff the uplink 0 egress queue; its path delay must grow.
	up := n.Leaves[0].Port(p.HostsPerLeaf + 0)
	up.SetPaused(fabric.PrioData, true, 0)
	for i := 0; i < 20; i++ {
		up.Enqueue(fabric.NewData(9, uint32(i), 1000, 0, 5))
	}
	if got := view.PathDelay(0, pkt); got <= base {
		t.Fatalf("path delay ignored local queue: %v <= %v", got, base)
	}
	if got := view.PathDelay(1, pkt); got != base {
		t.Fatalf("unrelated path delay changed: %v != %v", got, base)
	}
	// Back up spine 1's egress toward the destination leaf: path 1's delay
	// must rise by exactly that port's drain time.
	far := n.Spines[1].Port(1)
	far.SetPaused(fabric.PrioData, true, 0)
	for i := 0; i < 20; i++ {
		far.Enqueue(fabric.NewData(9, uint32(i), 1000, 0, 5))
	}
	if far.DrainTime() == 0 {
		t.Fatal("far-leg queue did not back up")
	}
	if got, want := view.PathDelay(1, pkt), base+far.DrainTime(); got != want {
		t.Fatalf("path delay ignored the spine's queue toward the destination: %v, want %v", got, want)
	}
}

func TestPathDelayReflectsAsymmetricRate(t *testing.T) {
	p := tiny()
	p.AsymFraction = 0.26 // exactly one of 4 links at this size
	p.AsymRate = units.Gbps
	n := Build(p)
	// Find the slow uplink on leaf 0, if any, and confirm its drain time is
	// larger once queued.
	view := n.views[0]
	pkt := fabric.NewData(1, 0, 1000, 0, 5)
	for s := 0; s < p.Spines; s++ {
		up := n.Leaves[0].Port(p.HostsPerLeaf + s)
		up.SetPaused(fabric.PrioData, true, 0)
		up.Enqueue(fabric.NewData(9, 0, 10000, 0, 5))
		d := view.PathDelay(s, pkt)
		want := units.TxTime(10000, up.Rate) + 2*p.LinkDelay
		if d != want {
			t.Fatalf("uplink %d delay %v, want %v", s, d, want)
		}
	}
}

func TestViewQueueBytes(t *testing.T) {
	p := tiny()
	n := Build(p)
	view := n.views[0]
	if view.NumPaths() != p.Spines {
		t.Fatalf("NumPaths = %d", view.NumPaths())
	}
	up := n.Leaves[0].Port(p.HostsPerLeaf)
	up.SetPaused(fabric.PrioData, true, 0)
	up.Enqueue(fabric.NewData(9, 0, 777, 0, 5))
	if got := view.QueueBytes(0); got != 777 {
		t.Fatalf("QueueBytes = %d", got)
	}
}

func TestSprayCapsAtSpineCount(t *testing.T) {
	n := Build(tiny())
	f := n.StartFlow(0, 5, 50*1000)
	n.SprayFlow(f, 100) // far more than 2 spines
	n.Run(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("over-sprayed flow incomplete")
	}
}

func TestAsymFractionProperty(t *testing.T) {
	prop := func(seedRaw uint16, fracRaw uint8) bool {
		frac := float64(fracRaw%90) / 100
		p := Default(3, 4, 2)
		p.AsymFraction = frac
		p.AsymRate = units.Gbps
		p.Seed = uint64(seedRaw)
		n := Build(p)
		slow := 0
		for l := 0; l < p.Leaves; l++ {
			for s := 0; s < p.Spines; s++ {
				if n.Leaves[l].Port(p.HostsPerLeaf+s).Rate == units.Gbps {
					slow++
				}
			}
		}
		return slow == int(frac*float64(p.Leaves*p.Spines))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRLBDisabledHasNoAgents(t *testing.T) {
	n := Build(tiny())
	for _, a := range n.Agents {
		if a != nil {
			t.Fatal("agent present without RLB")
		}
	}
	if len(n.Predictors) != 0 || len(n.Relays) != 0 {
		t.Fatal("RLB machinery present without RLB")
	}
}

func TestStopRLBDrainsEvents(t *testing.T) {
	p := tiny()
	rlb := core.DefaultParams(p.LinkDelay)
	p.RLB = &rlb
	n := Build(p)
	n.StartFlow(0, 5, 50*1000)
	n.Run(5 * sim.Millisecond)
	n.StopRLB()
	n.Eng.Run() // must terminate with no periodic samplers left
	if n.Eng.Pending() != 0 {
		t.Fatalf("%d events pending after StopRLB", n.Eng.Pending())
	}
}

func TestMixedRLBTraffic(t *testing.T) {
	// RLB network carrying bidirectional mixed flows stays lossless and
	// completes everything.
	p := tiny()
	p.Switch.PFCThreshold = 24 * 1000
	rlb := core.DefaultParams(p.LinkDelay)
	p.RLB = &rlb
	p.LB = lb.NewPresto(64*1000, 1000)
	n := Build(p)
	for i := 0; i < 12; i++ {
		src := i % 6
		dst := (i + 3) % 6
		n.StartFlow(src, dst, 150*1000)
	}
	n.Run(40 * sim.Millisecond)
	n.StopRLB()
	for i, f := range n.Flows {
		if !f.Done {
			t.Fatalf("flow %d incomplete under RLB+Presto", i)
		}
	}
	if n.Drops() != 0 {
		t.Fatalf("%d drops", n.Drops())
	}
}
