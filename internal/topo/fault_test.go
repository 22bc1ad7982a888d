package topo

import (
	"testing"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/invariant"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

func TestFailRestoreLinkState(t *testing.T) {
	n := Build(tiny())
	if !n.LinkIsUp(0, 1) || len(n.DownLinks()) != 0 {
		t.Fatal("links not up after build")
	}
	n.FailLink(0, 1)
	n.FailLink(0, 1) // idempotent
	if n.LinkIsUp(0, 1) || n.LinkIsUp(1, 1) == false {
		t.Fatal("wrong link failed")
	}
	if got := n.DownLinks(); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Fatalf("DownLinks = %v", got)
	}
	// Both directions of the physical link are cut.
	up := n.Leaves[0].Port(n.P.HostsPerLeaf + 1)
	if !up.Down() || !n.Spines[1].Port(0).Down() {
		t.Fatal("fault did not cut both directions")
	}
	n.RestoreLink(0, 1)
	n.RestoreLink(0, 1) // idempotent
	if !n.LinkIsUp(0, 1) || up.Down() || n.Spines[1].Port(0).Down() {
		t.Fatal("restore incomplete")
	}
}

func TestScheduleFaultsAppliesOnClock(t *testing.T) {
	n := Build(tiny())
	n.ScheduleFaults([]Fault{
		{At: sim.Millisecond, Kind: LinkDown, Leaf: 0, Spine: 0},
		{At: 2 * sim.Millisecond, Kind: LinkUp, Leaf: 0, Spine: 0},
		{At: 3 * sim.Millisecond, Kind: LinkRate, Leaf: 1, Spine: 1, Rate: units.Gbps},
	})
	if !n.LinkIsUp(0, 0) {
		t.Fatal("fault applied before its time")
	}
	n.Run(1500 * sim.Microsecond)
	if n.LinkIsUp(0, 0) {
		t.Fatal("scheduled link-down did not fire")
	}
	n.Run(2 * sim.Millisecond) // advances to t=3.5ms
	if !n.LinkIsUp(0, 0) {
		t.Fatal("scheduled link-up did not fire")
	}
	up := n.Leaves[1].Port(n.P.HostsPerLeaf + 1)
	if up.Rate != units.Gbps || up.Peer.Rate != units.Gbps {
		t.Fatal("scheduled rate change did not apply to both directions")
	}
}

func TestScheduleFaultsRejectsBadLink(t *testing.T) {
	n := Build(tiny())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nonexistent link")
		}
	}()
	n.ScheduleFaults([]Fault{{Kind: LinkDown, Leaf: 0, Spine: 99}})
}

func TestSetLinkRateRejectsNonPositive(t *testing.T) {
	n := Build(tiny())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero rate")
		}
	}()
	n.SetLinkRate(0, 0, 0)
}

func TestFaultKindString(t *testing.T) {
	for k, want := range map[FaultKind]string{
		LinkDown: "link-down", LinkUp: "link-up", LinkRate: "link-rate",
		FaultKind(9): "FaultKind(9)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestFailLinkNotifiesAgents(t *testing.T) {
	p := tiny()
	rlb := core.DefaultParams()
	p.RLB = &rlb
	p.LB = lb.NewDRILL(2, 1)
	n := Build(p)
	n.FailLink(0, 1)
	// Leaf 0 lost its own uplink: spine 1 is dead toward every destination.
	if !n.Agents[0].Faulted(1, 0) || !n.Agents[0].Faulted(1, 1) {
		t.Fatal("local agent not told its uplink died")
	}
	if n.Agents[0].Faulted(0, 1) {
		t.Fatal("healthy uplink marked faulted")
	}
	// Leaf 1 can still reach spine 1, but spine 1 can't deliver to leaf 0.
	if !n.Agents[1].Faulted(1, 0) {
		t.Fatal("remote agent not told about the dead far leg")
	}
	if n.Agents[1].Faulted(1, 1) {
		t.Fatal("remote agent over-notified: leaf 1 destinations unaffected")
	}
	n.RestoreLink(0, 1)
	if n.Agents[0].Faulted(1, 0) || n.Agents[1].Faulted(1, 0) {
		t.Fatal("restore did not clear agent fault state")
	}
}

func TestDeadPathTelemetryPoisoning(t *testing.T) {
	n := Build(tiny())
	v := n.views[0]
	pkt := mkDataTo(n, 0, 5) // leaf 0 -> leaf 1
	if v.QueueBytes(0) >= deadPathBytes || v.PathDelay(0, pkt) >= deadPathDelay {
		t.Fatal("healthy path reads as dead")
	}
	n.FailLink(0, 0)
	if v.QueueBytes(0) != deadPathBytes {
		t.Fatal("dead local uplink not poisoned in QueueBytes")
	}
	if v.PathDelay(0, pkt) != deadPathDelay {
		t.Fatal("dead local uplink not poisoned in PathDelay")
	}
	n.RestoreLink(0, 0)
	// Far leg down: leaf 0's uplink to spine 0 is fine, but spine 0 can't
	// reach leaf 1 — only PathDelay (which knows the destination) can see it.
	n.FailLink(1, 0)
	if v.QueueBytes(0) == deadPathBytes {
		t.Fatal("local queue poisoned for a remote fault")
	}
	if v.PathDelay(0, pkt) != deadPathDelay {
		t.Fatal("dead far leg not poisoned in PathDelay")
	}
}

// mkDataTo builds a data packet addressed from host src to host dst.
func mkDataTo(n *Network, src, dst int) *fabric.Packet {
	return fabric.NewData(1, 0, fabric.DefaultMTU, src, dst)
}

func TestWireLossOnCutLink(t *testing.T) {
	chk := invariant.New(false)
	p := tiny()
	p.Checker = chk
	n := Build(p)
	f := n.StartFlow(0, 5, 400*1000) // leaf 0 -> leaf 1, long enough to straddle the cut
	n.ScheduleFaults([]Fault{
		{At: 50 * sim.Microsecond, Kind: LinkDown, Leaf: 0, Spine: 0},
		{At: 51 * sim.Microsecond, Kind: LinkDown, Leaf: 0, Spine: 1},
		{At: 300 * sim.Microsecond, Kind: LinkUp, Leaf: 0, Spine: 0},
		{At: 300 * sim.Microsecond, Kind: LinkUp, Leaf: 0, Spine: 1},
	})
	n.Run(30 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow did not recover after links came back")
	}
	if n.WireLost() == 0 {
		t.Fatal("cutting every uplink mid-flow lost no frames on the wire")
	}
	n.AuditInvariants()
	if !chk.Ok() {
		t.Fatalf("recovered run has violations:\n%s", chk.Summary())
	}
}
