// Package spec defines the one canonical, serializable description of a
// simulation experiment. Every entry point speaks it natively: the figure
// builders declare sweep grids of specs (internal/harness compiles each cell
// with harness.Compile), cmd/rlbsim assembles a spec from flags (or loads one
// with -spec and overlays flags on top), cmd/figures dumps the exact grid
// behind every paper figure, and the scenario fuzzer generates, mutates,
// shrinks, and replays specs (internal/scenario).
//
// A Spec is plain data — integers and strings only, no simulator types — so
// it round-trips through JSON byte-stably, diffs cleanly in a shrink log,
// and replays bit-identically from a file. Durations are microseconds (or
// nanoseconds where the paper sweeps sub-microsecond values), sizes are
// kilobytes, and rates/loads are percent: integral units shrink and clamp
// without float drift. All unit conversion to sim.Time / units.Bandwidth
// happens in exactly one place, the harness compiler.
package spec

import "fmt"

// Spec fully describes one experiment. The zero value is not runnable; start
// from a harness Scale's spec base, the scenario generator, or
// `rlbsim -dump-spec`.
//
// A spec describes one of three experiment kinds:
//
//   - fabric (the default): a leaf-spine fabric with Poisson workload
//     traffic, optionally a one-shot incast and a fault schedule;
//   - repeated incast (IncastReps > 0): the Fig. 8 experiment — IncastReps
//     synchronized fan-ins, each of IncastDegree senders, spaced so every
//     initiation can complete; no background workload;
//   - motivation (Motiv != nil): the Fig. 2 two-leaf scenario — parallel
//     spine paths, background pairs, bursts, and one sprayed elephant flow.
type Spec struct {
	// GenSeed is the generator seed that produced this spec (0 when the
	// spec was decoded from fuzz corpus bytes or written by hand).
	// Informational: replay uses the spec fields themselves, never the seed.
	GenSeed uint64 `json:"genSeed"`
	// SimSeed seeds the simulation (harness.RunConfig.Seed).
	SimSeed uint64 `json:"simSeed"`

	Leaves       int `json:"leaves"`
	Spines       int `json:"spines"`
	HostsPerLeaf int `json:"hostsPerLeaf"`
	// LinkGbps is the symmetric link rate; the harness compiler rescales the
	// paper's 40 Gb/s switch thresholds to it, keeping their time constants.
	LinkGbps int `json:"linkGbps"`
	// LinkDelayNs is the per-hop propagation delay (0 = the 2 µs default
	// every scale in the repo uses).
	LinkDelayNs int `json:"linkDelayNs,omitempty"`
	// AsymPct downgrades that percentage of leaf-spine links to quarter
	// rate (§4.2's static asymmetry). 0 = symmetric.
	AsymPct int `json:"asymPct,omitempty"`

	// Scheme is a load-balancer scheme name; see SchemeNames.
	Scheme string `json:"scheme"`
	// Workload is a workload.ByName distribution name ("" = no Poisson
	// traffic; required to be empty for the repeated-incast kind).
	Workload string `json:"workload"`
	// LoadPct is the offered load as a percent of host line rate.
	LoadPct int `json:"loadPct"`
	// MaxFlowKB truncates sampled flow sizes (kB) so elephants finish
	// within the window (0 = no cap).
	MaxFlowKB int `json:"maxFlowKB"`

	// DurationUs is the traffic window; DrainUs the extra time for
	// in-flight flows (and post-fault retransmissions) to finish. Normalize
	// keeps DrainUs above a floor derived from DurationUs so the
	// completion property stays meaningful.
	DurationUs int `json:"durationUs"`
	DrainUs    int `json:"drainUs"`

	// Incast fields describe synchronized fan-ins (§4.3). With IncastReps
	// == 0 they are the fabric kind's one-shot incast injected at
	// IncastAtUs: IncastDegree servers each send IncastKB/degree to
	// IncastClient. IncastDegree < 2 means no incast. With IncastReps > 0
	// the spec is the dedicated Fig. 8 experiment instead: IncastReps
	// initiations of degree IncastDegree and total response IncastKB to a
	// seed-drawn client, spaced by the compiler; IncastAtUs/IncastClient
	// are unused there.
	IncastDegree int `json:"incastDegree,omitempty"`
	IncastKB     int `json:"incastKB,omitempty"`
	IncastAtUs   int `json:"incastAtUs,omitempty"`
	IncastClient int `json:"incastClient,omitempty"`
	IncastReps   int `json:"incastReps,omitempty"`

	// Faults is the fault schedule. A window with UpAtUs > DownAtUs
	// restores what it broke; UpAtUs <= DownAtUs means "never restore"
	// (the generator never emits that — Normalize forces restoration — but
	// `rlbsim -kill` without -restore-at does).
	Faults []FaultSpec `json:"faults,omitempty"`

	// RLB ablation and sensitivity knobs (Figs. 9 and 10). All-zero means
	// core.DefaultParams verbatim. QthFracPct is the PFC warning threshold
	// as a percent of the PFC threshold; DeltaTNs the derivative sampling
	// interval in nanoseconds (the paper sweeps 2–5 µs in 0.5 µs steps).
	NoRecirc     bool `json:"noRecirc,omitempty"`
	NoOrderGuard bool `json:"noOrderGuard,omitempty"`
	QthFracPct   int  `json:"qthFracPct,omitempty"`
	DeltaTNs     int  `json:"deltaTNs,omitempty"`

	// PFCOff disables lossless mode (the Fig. 3 comparison axis and the
	// IRN extension's lossy fabric); SelectiveRepeat switches hosts from
	// go-back-N to IRN-style selective repeat.
	PFCOff          bool `json:"pfcOff,omitempty"`
	SelectiveRepeat bool `json:"selectiveRepeat,omitempty"`

	// ProbeUs, when nonzero, replaces oracle path telemetry with in-band
	// probes at this interval (microseconds).
	ProbeUs int `json:"probeUs,omitempty"`
	// Strict enables the invariant checker's expensive tier.
	Strict bool `json:"strict,omitempty"`
	// Seeds is how many seeds an averaging runner should use (0 = 1). The
	// compiler ignores it — one spec compiles to one run — but it rides in
	// the artifact so a `rlbsim -seeds` invocation round-trips.
	Seeds int `json:"seeds,omitempty"`

	// Motiv, when non-nil, switches the spec to the Fig. 2 motivation
	// scenario; the fabric shape fields above are ignored (the topology is
	// 2 leaves x Motiv.Spines, host count derived from Motiv.Hosts).
	Motiv *MotivSpec `json:"motiv,omitempty"`

	// Telemetry, when non-nil, samples the run's probe set (switch queues,
	// PFC pause state, DCQCN rates, host transport state, RLB counters)
	// every SampleUs microseconds and attaches the series to the result.
	// Sampling is observation-only: results are bit-identical with the
	// block present or absent.
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`

	// LeakPutEvery is deliberate fault injection for the seeded-breach
	// meta-test: every Nth packet returned to the pool is silently leaked
	// (fabric.Pool.LeakEvery), which the strict packet-pool conservation
	// invariant must catch. The generator never sets it; it serializes so
	// a breach repro file replays the breach.
	LeakPutEvery int `json:"leakPutEvery,omitempty"`
}

// MotivSpec parameterizes the Fig. 2 scenario (see harness.Compile):
// two leaf switches joined by Spines equal-cost paths, Hosts background
// sender/receiver pairs, line-rate bursts, and one long flow sprayed over
// SprayPaths parallel paths.
type MotivSpec struct {
	Spines int `json:"spines"`
	Hosts  int `json:"hosts"`
	// SprayPaths is how many parallel paths the congested flow uses
	// (Fig. 4(a) sweeps this); Bursts the number of continuous burst waves
	// (Fig. 4(b) sweeps it).
	SprayPaths int `json:"sprayPaths"`
	Bursts     int `json:"bursts"`
	// BgLoadPct is the background senders' offered load percent (0 = the
	// scenario default, 55%).
	BgLoadPct int `json:"bgLoadPct,omitempty"`
}

// TelemetrySpec configures run-time telemetry sampling.
type TelemetrySpec struct {
	// SampleUs is the sampling interval in microseconds (>= 1).
	SampleUs int `json:"sampleUs"`
}

// FaultSpec is one fault window on leaf-spine link (Leaf, Spine): a kill
// window (RateDiv <= 1) cutting the link from DownAtUs to UpAtUs, or a
// degrade window (RateDiv > 1) running it at LinkRate/RateDiv over the same
// span. UpAtUs <= DownAtUs schedules the break only, never the repair.
type FaultSpec struct {
	Leaf     int `json:"leaf"`
	Spine    int `json:"spine"`
	DownAtUs int `json:"downAtUs"`
	UpAtUs   int `json:"upAtUs"`
	RateDiv  int `json:"rateDiv,omitempty"`
}

// Kill reports whether the window cuts the link (vs. degrading it).
func (f FaultSpec) Kill() bool { return f.RateDiv <= 1 }

// Restores reports whether the window schedules its own repair.
func (f FaultSpec) Restores() bool { return f.UpAtUs > f.DownAtUs }

// Clone deep-copies the spec so mutating the copy (sweep axes, shrink
// candidates) never aliases the original's Faults or Motiv.
func (s Spec) Clone() Spec {
	c := s
	if len(s.Faults) > 0 {
		c.Faults = make([]FaultSpec, len(s.Faults))
		copy(c.Faults, s.Faults)
	}
	if s.Motiv != nil {
		m := *s.Motiv
		c.Motiv = &m
	}
	if s.Telemetry != nil {
		t := *s.Telemetry
		c.Telemetry = &t
	}
	return c
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DrainFloorUs is the minimum drain that makes the flows-complete property
// sound rather than a tuning assumption: a flow that has not finished by
// then is stuck, not slow. Two parts:
//
//   - a time base: three more traffic windows plus 2 ms, covering PFC
//     backlog draining and several go-back-N RTO cycles (the transport
//     default is 400 µs) after a restored kill window;
//   - a capacity term: the worst case is every byte crossing one
//     quarter-rate link (static asymmetry and degrade windows both floor at
//     LinkRate/4, and hashing can pile all flows onto it), so budget the
//     per-flow cap, the window's offered bytes, and the incast — each with
//     margin for Poisson overshoot, DCQCN ramp-up, and retransmissions —
//     across a LinkGbps/4 bottleneck. Long drains are nearly free: once
//     flows finish, only periodic timers tick.
//
// Fields are read post-clamp, so LinkGbps >= 5.
func (s Spec) DrainFloorUs() int {
	hosts := s.Leaves * s.HostsPerLeaf
	// Offered bytes over the window, in KB: LoadPct% of line rate per host.
	genKB := s.LoadPct * hosts * s.LinkGbps * s.DurationUs / 800
	slowKB := 4*s.MaxFlowKB + 3*genKB + 2*s.IncastKB
	// A quarter-rate link moves LinkGbps/32 KB per microsecond.
	return 3*s.DurationUs + 2000 + 32*slowKB/s.LinkGbps
}

// Normalize clamps every field into the envelope the fuzz property suite is
// calibrated for and repairs inconsistencies (fault addresses outside the
// fabric, unordered windows, duplicate links, impossible incasts). Both the
// generator and the byte decoder emit normalized specs, and the shrinker
// re-normalizes every candidate, so all specs that reach the runner satisfy
// the same invariants: PFC on, every fault restored before the window ends,
// drain above the completion floor.
//
// Fields outside the generator's sampled surface — the figure-only knobs
// (Motiv, IncastReps, PFCOff, SelectiveRepeat, probes, telemetry, RLB
// ablations, strict/seeds overrides) — are cleared: the envelope's theorems
// (losslessness, completion) are calibrated without them, and the property
// runner supplies its own strictness and scheduler choices. Figure grids
// deliberately live outside this envelope and are never normalized.
func (s Spec) Normalize() Spec {
	s.Motiv = nil
	s.IncastReps = 0
	s.PFCOff = false
	s.SelectiveRepeat = false
	s.ProbeUs = 0
	s.NoRecirc, s.NoOrderGuard = false, false
	s.QthFracPct, s.DeltaTNs = 0, 0
	s.LinkDelayNs = 0
	s.Strict = false
	s.Seeds = 0
	s.Telemetry = nil

	s.Leaves = clampInt(s.Leaves, 2, 4)
	s.Spines = clampInt(s.Spines, 2, 6)
	s.HostsPerLeaf = clampInt(s.HostsPerLeaf, 1, 4)
	s.LinkGbps = clampInt(s.LinkGbps, 5, 40)
	s.AsymPct = clampInt(s.AsymPct, 0, 50)
	if !ValidScheme(s.Scheme) {
		s.Scheme = "ecmp"
	}
	if !ValidWorkload(s.Workload) {
		s.Workload = "webserver"
	}
	s.LoadPct = clampInt(s.LoadPct, 5, 50)
	s.MaxFlowKB = clampInt(s.MaxFlowKB, 10, 1000)
	s.DurationUs = clampInt(s.DurationUs, 50, 800)

	hosts := s.Leaves * s.HostsPerLeaf
	if s.IncastDegree < 2 || hosts-1 < 2 {
		s.IncastDegree, s.IncastKB, s.IncastAtUs, s.IncastClient = 0, 0, 0, 0
	} else {
		s.IncastDegree = clampInt(s.IncastDegree, 2, minInt(6, hosts-1))
		s.IncastKB = clampInt(s.IncastKB, 4, 64)
		s.IncastAtUs = clampInt(s.IncastAtUs, 0, s.DurationUs)
		s.IncastClient = clampInt(s.IncastClient, 0, hosts-1)
	}

	// The drain floor reads the clamped dims/load/caps above, so it comes last.
	if floor := s.DrainFloorUs(); s.DrainUs < floor {
		s.DrainUs = floor
	}

	// Faults: clamp addresses, keep at most one window per link (overlapping
	// windows on one link could re-kill it after its restore and leave it
	// down at end of run), and force DownAt < UpAt <= Duration so every
	// break is repaired inside the traffic window.
	var faults []FaultSpec
	seen := make(map[[2]int]bool)
	for _, f := range s.Faults {
		if len(faults) == 3 {
			break
		}
		f.Leaf = clampInt(f.Leaf, 0, s.Leaves-1)
		f.Spine = clampInt(f.Spine, 0, s.Spines-1)
		key := [2]int{f.Leaf, f.Spine}
		if seen[key] {
			continue
		}
		seen[key] = true
		f.DownAtUs = clampInt(f.DownAtUs, s.DurationUs/8, s.DurationUs-s.DurationUs/8)
		f.UpAtUs = clampInt(f.UpAtUs, f.DownAtUs+1, s.DurationUs)
		if f.RateDiv != 0 {
			f.RateDiv = clampInt(f.RateDiv, 1, 8)
		}
		faults = append(faults, f)
	}
	s.Faults = faults

	if s.LeakPutEvery < 0 {
		s.LeakPutEvery = 0
	}
	return s
}

// Params renders the spec as the one-line parameter summary the compiler
// attaches to every invariant violation (RunConfig.Context), so any failure
// in a log is reproducible without the spec file. There is exactly one
// composer of this string — harness.Compile always installs it — so
// harness-run and scenario-run violation labels cannot drift in format.
func (s Spec) Params() string {
	out := fmt.Sprintf("spec gen-seed=%d sim-seed=%d fabric=%dx%d/%d@%dG scheme=%s wl=%s load=%d%% cap=%dKB dur=%dus drain=%dus",
		s.GenSeed, s.SimSeed, s.Leaves, s.Spines, s.HostsPerLeaf, s.LinkGbps,
		s.Scheme, s.Workload, s.LoadPct, s.MaxFlowKB, s.DurationUs, s.DrainUs)
	if s.Motiv != nil {
		m := s.Motiv
		out += fmt.Sprintf(" motiv=%dpaths/%dpairs spray=%d bursts=%d", m.Spines, m.Hosts, m.SprayPaths, m.Bursts)
		if m.BgLoadPct > 0 {
			out += fmt.Sprintf(" bg=%d%%", m.BgLoadPct)
		}
	}
	if s.AsymPct > 0 {
		out += fmt.Sprintf(" asym=%d%%", s.AsymPct)
	}
	if s.IncastDegree >= 2 {
		if s.IncastReps > 0 {
			out += fmt.Sprintf(" incast=%dx%dKB reps=%d", s.IncastDegree, s.IncastKB, s.IncastReps)
		} else {
			out += fmt.Sprintf(" incast=%dx%dKB@%dus->h%d", s.IncastDegree, s.IncastKB, s.IncastAtUs, s.IncastClient)
		}
	}
	for _, f := range s.Faults {
		kind := "kill"
		if !f.Kill() {
			kind = fmt.Sprintf("rate/%d", f.RateDiv)
		}
		out += fmt.Sprintf(" fault=%s(l%d,s%d,%d-%dus)", kind, f.Leaf, f.Spine, f.DownAtUs, f.UpAtUs)
	}
	if s.PFCOff {
		out += " pfc=off"
	}
	if s.SelectiveRepeat {
		out += " irn"
	}
	if s.NoRecirc {
		out += " norecirc"
	}
	if s.NoOrderGuard {
		out += " noguard"
	}
	if s.QthFracPct > 0 {
		out += fmt.Sprintf(" qth=%d%%", s.QthFracPct)
	}
	if s.DeltaTNs > 0 {
		out += fmt.Sprintf(" dt=%dns", s.DeltaTNs)
	}
	if s.ProbeUs > 0 {
		out += fmt.Sprintf(" probe=%dus", s.ProbeUs)
	}
	if s.Telemetry != nil {
		out += fmt.Sprintf(" telem=%dus", s.Telemetry.SampleUs)
	}
	if s.LeakPutEvery > 0 {
		out += fmt.Sprintf(" leak-every=%d", s.LeakPutEvery)
	}
	return out
}
