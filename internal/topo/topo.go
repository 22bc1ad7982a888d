// Package topo builds the simulated fabrics of the paper's evaluation:
// symmetric leaf-spine networks (§4, 12x12 with 24 hosts per leaf at
// 40 Gb/s), the asymmetric variant with a fraction of leaf-spine links
// downgraded (§4.2), and the two-leaf motivation topology of Fig. 2. It wires
// hosts, switches, routing, the chosen load-balancing policy, and optionally
// RLB's predictor/relay/agent deployment.
package topo

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/invariant"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/transport"
	"github.com/rlb-project/rlb/internal/units"
)

// Params describes a leaf-spine fabric.
type Params struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int

	LinkRate  units.Bandwidth
	LinkDelay sim.Time

	Switch switchsim.Config
	Host   transport.HostConfig

	// LB constructs the base load balancer, one instance per leaf.
	LB lb.Factory

	// RLB, when non-nil, deploys RLB on top of the base LB: agents on
	// leaves, predictors on every switch, CNM relays on spines.
	RLB *core.Params

	// AsymFraction downgrades that fraction of leaf-spine links to AsymRate
	// (both directions), reproducing §4.2's asymmetric topology.
	AsymFraction float64
	AsymRate     units.Bandwidth

	// Checker, when non-nil, is threaded through every switch and host so
	// the data plane self-checks the lossless invariants as it runs (see
	// internal/invariant). The harness attaches one per simulation.
	Checker *invariant.Checker

	// Scheduler selects the engine's event-queue implementation; the zero
	// value is the default calendar queue. SchedHeap keeps the reference
	// binary heap for the scenario fuzzer's scheduler-equivalence property.
	Scheduler sim.SchedulerKind

	Seed uint64
}

// Default returns the paper's symmetric fabric scaled by the given factors;
// Default(12, 12, 24) is the full evaluation topology.
func Default(leaves, spines, hostsPerLeaf int) Params {
	return Params{
		Leaves:       leaves,
		Spines:       spines,
		HostsPerLeaf: hostsPerLeaf,
		LinkRate:     40 * units.Gbps,
		LinkDelay:    2 * sim.Microsecond,
		Switch:       switchsim.DefaultConfig(),
		Host:         transport.DefaultHostConfig(),
		Seed:         1,
	}
}

// Network is a built fabric ready to carry flows.
type Network struct {
	Eng *sim.Engine
	P   Params

	Hosts  []*transport.Host
	Leaves []*switchsim.Switch
	Spines []*switchsim.Switch

	// RLB deployment (nil entries when RLB is off). Ticker drives the
	// predictors, in this order.
	Agents     []*core.Agent
	Predictors []*core.Predictor
	Relays     []*core.Relay
	Ticker     *core.Ticker

	// Flows lists every flow started through StartFlow.
	Flows []*transport.Flow

	views    []*leafView
	routers  []*leafRouter
	nextFlow uint32
	rng      *rng.Source
	pool     *fabric.Pool

	// linkUp[l*Spines+s] tracks the fault-plane state of leaf-spine link
	// (l, s); see fault.go.
	linkUp []bool
}

// HostsOfLeaf returns the host ids attached to leaf l.
func (n *Network) HostsOfLeaf(l int) []int {
	ids := make([]int, n.P.HostsPerLeaf)
	for i := range ids {
		ids[i] = l*n.P.HostsPerLeaf + i
	}
	return ids
}

// LeafOf returns the leaf index of a host id.
func (n *Network) LeafOf(host int) int { return host / n.P.HostsPerLeaf }

// MaxSpines is the widest fabric Build accepts: uplink exclusion sets
// (lb.PathSet) are 64-bit masks.
const MaxSpines = 64

// Build constructs the fabric.
func Build(p Params) *Network {
	if p.Leaves < 1 || p.Spines < 1 || p.Spines > MaxSpines || p.HostsPerLeaf < 1 {
		panic(fmt.Sprintf("topo: invalid dimensions %dx%d/%d", p.Leaves, p.Spines, p.HostsPerLeaf))
	}
	if p.LB == nil {
		p.LB = lb.NewECMP()
	}
	eng := sim.NewEngineWith(p.Scheduler)
	n := &Network{Eng: eng, P: p, rng: rng.New(p.Seed ^ 0xA5A5), pool: fabric.NewPool()}
	n.linkUp = make([]bool, p.Leaves*p.Spines)
	for i := range n.linkUp {
		n.linkUp[i] = true
	}
	p.Host.Checker = p.Checker
	// One packet free list per simulation: the engine is single-threaded, so
	// every device shares it without synchronization.
	p.Host.Pool = n.pool

	numHosts := p.Leaves * p.HostsPerLeaf
	// Device id space: hosts [0, numHosts), leaves, then spines.
	leafID := func(l int) int { return numHosts + l }
	spineID := func(s int) int { return numHosts + p.Leaves + s }

	// Hosts.
	for h := 0; h < numHosts; h++ {
		n.Hosts = append(n.Hosts, transport.NewHost(eng, h, p.Host))
	}

	// Switches. Leaf ports: [0, HostsPerLeaf) face hosts, then Spines
	// uplinks. Spine ports: one per leaf.
	for l := 0; l < p.Leaves; l++ {
		sw := switchsim.New(eng, leafID(l), p.HostsPerLeaf+p.Spines, p.Switch, n.rng.Fork())
		sw.Checker = p.Checker
		sw.Pool = n.pool
		n.Leaves = append(n.Leaves, sw)
	}
	for s := 0; s < p.Spines; s++ {
		sw := switchsim.New(eng, spineID(s), p.Leaves, p.Switch, n.rng.Fork())
		sw.Checker = p.Checker
		sw.Pool = n.pool
		n.Spines = append(n.Spines, sw)
	}

	// Host links.
	for l := 0; l < p.Leaves; l++ {
		for i := 0; i < p.HostsPerLeaf; i++ {
			h := n.Hosts[l*p.HostsPerLeaf+i]
			fabric.Connect(h.NIC(), n.Leaves[l].Port(i), p.LinkRate, p.LinkDelay)
		}
	}

	// Leaf-spine links, with optional asymmetry.
	asym := n.pickAsymLinks(p)
	for l := 0; l < p.Leaves; l++ {
		for s := 0; s < p.Spines; s++ {
			rate := p.LinkRate
			if asym[l*p.Spines+s] {
				rate = p.AsymRate
			}
			fabric.Connect(n.Leaves[l].Port(p.HostsPerLeaf+s), n.Spines[s].Port(l), rate, p.LinkDelay)
		}
	}

	// Routing and policies.
	n.Agents = make([]*core.Agent, p.Leaves)
	n.views = make([]*leafView, p.Leaves)
	n.routers = make([]*leafRouter, p.Leaves)
	for l := 0; l < p.Leaves; l++ {
		view := &leafView{net: n, leaf: l}
		n.views[l] = view
		base := p.LB()
		var policy lb.Policy
		var trc sim.Time
		if p.RLB != nil {
			params := p.RLB.Normalize()
			agent := core.NewAgent(base, params, p.HostsPerLeaf, p.Spines, n.LeafOf)
			n.Agents[l] = agent
			policy = agent
			trc = params.Trc
			sw := n.Leaves[l]
			sw.OnControl = func(pkt *fabric.Packet, in int) bool {
				return agent.OnControl(sw, pkt, in)
			}
		} else {
			policy = lb.PlainPolicy{Chooser: base}
		}
		router := &leafRouter{net: n, leaf: l, view: view, policy: policy, trc: trc}
		n.routers[l] = router
		n.Leaves[l].SetRouter(router)
	}
	for s := 0; s < p.Spines; s++ {
		n.Spines[s].SetRouter(spineRouter{net: n})
	}

	// RLB predictors and relays.
	if p.RLB != nil {
		params := p.RLB.Normalize()
		for l := 0; l < p.Leaves; l++ {
			// Leaves watch their fabric-facing ingress ports: congestion
			// there means this leaf is about to pause the spines.
			monitor := make([]int, p.Spines)
			for s := range monitor {
				monitor[s] = p.HostsPerLeaf + s
			}
			n.Predictors = append(n.Predictors, core.NewPredictor(n.Leaves[l], params, monitor, l, p.LinkDelay))
		}
		for s := 0; s < p.Spines; s++ {
			monitor := make([]int, p.Leaves)
			for l := range monitor {
				monitor[l] = l
			}
			n.Predictors = append(n.Predictors, core.NewPredictor(n.Spines[s], params, monitor, -1, p.LinkDelay))
			relay := core.NewRelay(n.Spines[s], params)
			n.Relays = append(n.Relays, relay)
			n.Spines[s].OnControl = relay.OnControl
		}
		n.Ticker = core.NewTicker(eng, n.Predictors)
	}
	return n
}

func (n *Network) pickAsymLinks(p Params) []bool {
	asym := make([]bool, p.Leaves*p.Spines)
	if p.AsymFraction <= 0 || p.AsymRate <= 0 {
		return asym
	}
	count := int(p.AsymFraction * float64(len(asym)))
	r := rng.New(p.Seed ^ 0x517E)
	for _, idx := range r.Perm(len(asym))[:count] {
		asym[idx] = true
	}
	return asym
}

// StartFlow injects one flow and records it.
func (n *Network) StartFlow(src, dst, size int) *transport.Flow {
	n.nextFlow++
	f := n.Hosts[src].StartFlow(n.nextFlow, n.Hosts[dst], size)
	n.Flows = append(n.Flows, f)
	return f
}

// Starter returns a workload.StartFunc bound to this network.
func (n *Network) Starter() func(src, dst, size int) {
	return func(src, dst, size int) { n.StartFlow(src, dst, size) }
}

// PacketPool exposes the simulation's packet free list, primarily so test
// harnesses can reach its fault-injection knobs (fabric.Pool.LeakEvery) from
// a RunConfig.Inject hook; see the scenario fuzzer's seeded-breach meta-test.
func (n *Network) PacketPool() *fabric.Pool { return n.pool }

// SprayFlow forces a flow to be packet-sprayed round-robin over the first k
// uplinks at its source leaf, bypassing the LB policy — used to reproduce the
// paper's "congested flow transmitted over k parallel paths" control knob
// (Fig. 2 / Fig. 4(a)).
func (n *Network) SprayFlow(f *transport.Flow, k int) {
	leaf := n.LeafOf(f.Src)
	n.routers[leaf].spray.Put(f.ID, k)
}

// StopRLB halts the RLB predictors' periodic sampling so the event queue can
// drain.
func (n *Network) StopRLB() {
	if n.Ticker != nil {
		n.Ticker.Stop()
	}
}

// Run advances the simulation by d and then stops RLB sampling.
func (n *Network) Run(d sim.Time) {
	n.Eng.RunUntil(n.Eng.Now() + d)
}

// PauseFramesSent totals PFC PAUSE frames generated by all switches.
func (n *Network) PauseFramesSent() uint64 {
	var total uint64
	for _, sw := range n.Leaves {
		total += sw.Stats.PauseSent
	}
	for _, sw := range n.Spines {
		total += sw.Stats.PauseSent
	}
	return total
}

// Drops totals shared-pool drops across all switches.
func (n *Network) Drops() uint64 {
	var total uint64
	for _, sw := range n.Leaves {
		total += sw.Stats.Dropped
	}
	for _, sw := range n.Spines {
		total += sw.Stats.Dropped
	}
	return total
}

// Recirculations totals recirculated frames across leaves.
func (n *Network) Recirculations() uint64 {
	var total uint64
	for _, sw := range n.Leaves {
		total += sw.Stats.Recirced
	}
	return total
}
