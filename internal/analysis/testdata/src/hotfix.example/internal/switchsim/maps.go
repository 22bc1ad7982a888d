package switchsim

import "hotfix.example/internal/sim"

// Flowd is a second Handler whose helpers carry seeded built-in map traffic:
// the map-discipline side of the hotpath analyzer flags indexing, assignment,
// and delete on built-in maps in hot functions even when they do not
// allocate — per-packet state belongs in flat tables. Map ranges are left to
// the determinism analyzer.
type Flowd struct {
	tbl   map[uint64]int
	stale map[uint64]sim.Time
	cold  map[string]int
	last  int
}

// OnEvent is a hot-path root.
func (f *Flowd) OnEvent(arg sim.EventArg) {
	f.classify(arg.U64)
	f.expire(sim.Time(arg.U64))
	f.last = f.audit()
}

// classify is hot via one direct call: map reads and writes are findings.
func (f *Flowd) classify(k uint64) int {
	f.tbl[k]++ // want `built-in map access \(hash \+ bucket probe per packet\) in event hot path`
	if v, ok := f.tbl[k]; ok { // want `built-in map access \(hash \+ bucket probe per packet\) in event hot path`
		return v
	}
	return 0
}

// expire is hot: deleting aged entries out of a built-in map is a finding
// even though it does not allocate. The range itself is the determinism
// analyzer's finding, not this one's.
func (f *Flowd) expire(cut sim.Time) {
	for k, at := range f.stale {
		if at < cut {
			delete(f.stale, k) // want `built-in map delete in event hot path`
		}
	}
}

// audit is hot, but its one map read carries a suppression: allow comments
// silence map-discipline findings like any other hotpath finding.
func (f *Flowd) audit() int {
	//simlint:allow(hotpath) fixture: sanctioned map read kept hot for the suppression case
	return f.cold["x"]
}

// Snapshot is construction/reporting-time code, unreachable from OnEvent:
// identical map traffic here is not a finding.
func (f *Flowd) Snapshot() map[uint64]int {
	out := make(map[uint64]int, len(f.tbl))
	for k, v := range f.tbl {
		out[k] = v
	}
	return out
}
