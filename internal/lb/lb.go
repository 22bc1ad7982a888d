// Package lb defines the load-balancing interface used by leaf switches to
// pick uplinks, and implements the four schemes the paper builds RLB on:
// Presto (flowcell round-robin), LetFlow (flowlet switching), Hermes
// (condition-aware deliberate rerouting) and DRILL (per-packet
// power-of-two-choices), plus ECMP and CONGA. Schemes lists all six in the
// configurations the paper evaluates.
//
// A Chooser ranks paths; the exclude mask lets a caller (RLB's rerouting
// module) ask for the scheme's *suboptimal* choice when the optimal path has
// a PFC warning, which is exactly the "select the suboptimal path ps" step of
// the paper's Algorithm 1.
package lb

import (
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
)

// PathSet is a bitmask of path indices (bit i set = path i excluded).
// Topologies are limited to 64 equal-cost uplinks, which covers the paper's
// fabrics (12 and 40 parallel paths).
type PathSet uint64

// With returns the set with path i added.
func (s PathSet) With(i int) PathSet { return s | 1<<uint(i) }

// Has reports whether path i is in the set.
func (s PathSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Count returns the number of paths in the set.
func (s PathSet) Count() int {
	n := 0
	for ; s != 0; s &= s - 1 {
		n++
	}
	return n
}

// View is the per-leaf-switch state a Chooser may consult. It is implemented
// by the topology layer.
type View interface {
	// NumPaths returns the number of equal-cost uplinks.
	NumPaths() int
	// QueueBytes returns the local data-class egress backlog of uplink i.
	QueueBytes(i int) int
	// PathDelay estimates the current one-way delay to pkt's destination
	// leaf via uplink i (queueing + propagation along the uplink and the
	// spine hop).
	PathDelay(i int, pkt *fabric.Packet) sim.Time
	// Now returns the current virtual time.
	Now() sim.Time
	// Rng returns this switch's random stream.
	Rng() *rng.Source
}

// Chooser selects an uplink for each data frame. Implementations must honor
// exclude when at least one path remains outside it; with all paths excluded
// they may return any path.
type Chooser interface {
	// Name identifies the scheme ("presto", "letflow", ...).
	Name() string
	// Choose returns the scheme's preferred uplink outside exclude.
	Choose(v View, pkt *fabric.Packet, exclude PathSet) int
}

// Decision is a Policy verdict: either forward on Uplink or recirculate the
// frame through the switch pipeline and decide again later.
type Decision struct {
	Uplink      int
	Recirculate bool
}

// Policy is the full uplink-selection policy installed on a leaf switch.
// Plain schemes never recirculate; RLB (internal/core) wraps a Chooser and
// may.
type Policy interface {
	Pick(v View, pkt *fabric.Packet) Decision
}

// PlainPolicy adapts a bare Chooser into a Policy.
type PlainPolicy struct{ Chooser Chooser }

// Pick implements Policy.
func (p PlainPolicy) Pick(v View, pkt *fabric.Packet) Decision {
	return Decision{Uplink: p.Chooser.Choose(v, pkt, 0)}
}

// Committer is an optional Chooser extension: stateful schemes implement it
// to learn where a packet was actually forwarded when a policy (RLB)
// overrides their choice, keeping their flow state in sync with reality.
type Committer interface {
	Commit(pkt *fabric.Packet, path int)
}

// Factory builds one Chooser instance per leaf switch (schemes keep
// per-switch state).
type Factory func() Chooser

// Scheme is a base load balancer in the configuration the paper evaluates.
type Scheme struct {
	Name string
	// New returns the scheme's factory for a fabric with the given per-hop
	// link delay.
	New func(linkDelay sim.Time) Factory
}

// Schemes are the paper's six base load balancers, in the canonical order
// shared by every scheme-name list, help string and valid-name error, each
// in the configuration the paper evaluates: Presto with 64 KB flowcells,
// LetFlow and CONGA with 50 µs flowlet gaps, Hermes with its delay
// thresholds above the no-load path delay (two link hops), and DRILL(2,1).
// Each combines with RLB ("drill+rlb"). The order is part of the scenario
// fuzz-corpus format: the generator indexes into the scheme names, so
// reordering would silently re-interpret committed corpus entries.
var Schemes = []Scheme{
	{"ecmp", func(sim.Time) Factory { return NewECMP() }},
	{"presto", func(sim.Time) Factory { return NewPresto(64*1000, fabric.DefaultMTU) }},
	{"letflow", func(sim.Time) Factory { return NewLetFlow(50 * sim.Microsecond) }},
	{"hermes", func(d sim.Time) Factory { return NewHermes(fabric.DefaultMTU, 2*d) }},
	{"drill", func(sim.Time) Factory { return NewDRILL(2, 1) }},
	{"conga", func(sim.Time) Factory { return NewCONGA(50 * sim.Microsecond) }},
}

// SchemeByName returns the base scheme called name.
func SchemeByName(name string) (Scheme, bool) {
	for _, s := range Schemes {
		if s.Name == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// firstOutside returns start if allowed, else the next index (mod n) outside
// exclude; if everything is excluded it returns start.
func firstOutside(start, n int, exclude PathSet) int {
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if !exclude.Has(i) {
			return i
		}
	}
	return start
}

// hashFlow mixes a flow id into a well-distributed 64-bit value.
func hashFlow(id uint32) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
