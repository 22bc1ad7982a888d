package topo

import (
	"testing"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

func tiny() Params {
	p := Default(2, 2, 3)
	p.LinkRate = 10 * units.Gbps // keep test event counts small
	return p
}

func TestBuildShape(t *testing.T) {
	n := Build(Default(3, 4, 2))
	if len(n.Hosts) != 6 || len(n.Leaves) != 3 || len(n.Spines) != 4 {
		t.Fatalf("shape wrong: %d hosts %d leaves %d spines", len(n.Hosts), len(n.Leaves), len(n.Spines))
	}
	if n.Leaves[0].NumPorts() != 2+4 || n.Spines[0].NumPorts() != 3 {
		t.Fatal("port counts wrong")
	}
	if n.LeafOf(5) != 2 {
		t.Fatal("LeafOf wrong")
	}
	if got := n.HostsOfLeaf(1); got[0] != 2 || got[1] != 3 {
		t.Fatalf("HostsOfLeaf = %v", got)
	}
}

func TestInterLeafFlowCompletes(t *testing.T) {
	n := Build(tiny())
	f := n.StartFlow(0, 5, 200*1000) // leaf 0 -> leaf 1
	n.Run(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("inter-leaf flow did not complete")
	}
	// 200KB at 10G ~ 160us + queueing.
	if f.FCT() > 2*sim.Millisecond {
		t.Fatalf("FCT %v way too slow", f.FCT())
	}
}

func TestIntraLeafFlowCompletes(t *testing.T) {
	n := Build(tiny())
	f := n.StartFlow(0, 1, 100*1000)
	n.Run(5 * sim.Millisecond)
	if !f.Done {
		t.Fatal("intra-leaf flow did not complete")
	}
}

func TestAllSchemesDeliverEverything(t *testing.T) {
	factories := map[string]lb.Factory{
		"ecmp":    lb.NewECMP(),
		"presto":  lb.NewPresto(64*1000, 1000),
		"letflow": lb.NewLetFlow(50 * sim.Microsecond),
		"drill":   lb.NewDRILL(2, 1),
		"hermes":  lb.NewHermes(1000, 4*sim.Microsecond),
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			p := tiny()
			p.LB = f
			n := Build(p)
			for i := 0; i < 10; i++ {
				n.StartFlow(i%3, 3+(i%3), 50*1000)
			}
			n.Run(20 * sim.Millisecond)
			for i, fl := range n.Flows {
				if !fl.Done {
					t.Fatalf("%s: flow %d incomplete", name, i)
				}
			}
			if n.Drops() != 0 {
				t.Fatalf("%s: %d drops in lossless fabric", name, n.Drops())
			}
		})
	}
}

func TestIncastTriggersPFCWithoutLoss(t *testing.T) {
	p := tiny()
	p.Switch.PFCThreshold = 30 * 1000 // tighten to force PFC at this scale
	n := Build(p)
	// 5 hosts all blast host 0.
	for src := 1; src < 6; src++ {
		n.StartFlow(src, 0, 500*1000)
	}
	n.Run(30 * sim.Millisecond)
	if n.PauseFramesSent() == 0 {
		t.Fatal("incast did not trigger PFC")
	}
	if n.Drops() != 0 {
		t.Fatalf("%d drops despite PFC", n.Drops())
	}
	for i, fl := range n.Flows {
		if !fl.Done {
			t.Fatalf("flow %d incomplete", i)
		}
	}
}

func TestAsymmetricLinksApplied(t *testing.T) {
	p := tiny()
	p.AsymFraction = 0.5
	p.AsymRate = units.Gbps
	n := Build(p)
	slow := 0
	for l := 0; l < p.Leaves; l++ {
		for s := 0; s < p.Spines; s++ {
			if n.Leaves[l].Port(p.HostsPerLeaf+s).Rate == units.Gbps {
				slow++
			}
		}
	}
	if slow != 2 { // 50% of 4 links
		t.Fatalf("downgraded links = %d, want 2", slow)
	}
}

func TestSprayFlowUsesKUplinks(t *testing.T) {
	p := tiny()
	n := Build(p)
	f := n.StartFlow(0, 5, 100*1000)
	n.SprayFlow(f, 2)
	n.Run(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("sprayed flow incomplete")
	}
	// Both spines must have carried traffic from leaf 0.
	for s := 0; s < 2; s++ {
		if n.Spines[s].Stats.DataIn == 0 {
			t.Fatalf("spine %d saw no data from sprayed flow", s)
		}
	}
}

func TestRLBDeployment(t *testing.T) {
	p := tiny()
	rlb := core.DefaultParams()
	p.RLB = &rlb
	p.LB = lb.NewDRILL(2, 1)
	n := Build(p)
	if n.Agents[0] == nil || n.Agents[1] == nil {
		t.Fatal("agents missing")
	}
	if len(n.Predictors) != 4 || len(n.Relays) != 2 {
		t.Fatalf("predictors=%d relays=%d", len(n.Predictors), len(n.Relays))
	}
	f := n.StartFlow(0, 5, 100*1000)
	n.Run(10 * sim.Millisecond)
	n.StopRLB()
	if !f.Done {
		t.Fatal("flow incomplete under RLB")
	}
}

func TestRLBWarningsFlowUnderCongestion(t *testing.T) {
	p := tiny()
	p.Switch.PFCThreshold = 40 * 1000
	rlb := core.DefaultParams()
	p.RLB = &rlb
	p.LB = lb.NewPresto(64*1000, 1000)
	n := Build(p)
	// Hammer host 3 (leaf 1) from every other host to congest the fabric.
	for src := 0; src < 3; src++ {
		n.StartFlow(src, 3, 2*1000*1000)
	}
	n.StartFlow(4, 3, 2*1000*1000) // intra-leaf contributor
	n.Run(50 * sim.Millisecond)
	n.StopRLB()
	var warns uint64
	for _, a := range n.Agents {
		if a != nil {
			warns += a.Stats.WarningsRcvd
		}
	}
	if warns == 0 {
		t.Fatal("no PFC warnings reached any leaf agent under heavy congestion")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		p := tiny()
		p.Seed = 99
		p.LB = lb.NewDRILL(2, 1)
		n := Build(p)
		for i := 0; i < 8; i++ {
			n.StartFlow(i%6, (i+3)%6, 80*1000)
		}
		n.Run(20 * sim.Millisecond)
		var last sim.Time
		for _, f := range n.Flows {
			if f.FinishAt > last {
				last = f.FinishAt
			}
		}
		return last, n.PauseFramesSent()
	}
	t1, p1 := run()
	t2, p2 := run()
	if t1 != t2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, p1, t2, p2)
	}
}

func TestControlFramesUseHashedUplink(t *testing.T) {
	// ACK path must be stable: a flow completes even when data path choices
	// churn (DRILL per-packet).
	p := tiny()
	p.LB = lb.NewDRILL(2, 1)
	n := Build(p)
	f := n.StartFlow(0, 5, 300*1000)
	n.Run(20 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow with per-packet LB incomplete")
	}
}

func TestBuildPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 leaves")
		}
	}()
	Build(Params{Leaves: 0, Spines: 1, HostsPerLeaf: 1})
}
