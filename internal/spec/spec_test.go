package spec

import (
	"bytes"
	"strings"
	"testing"
)

// fullSpec exercises every serialized field at a nonzero value, so the
// round-trip tests cover the omitempty knobs too.
func fullSpec() Spec {
	return Spec{
		GenSeed: 7, SimSeed: 42,
		Leaves: 4, Spines: 6, HostsPerLeaf: 6, LinkGbps: 25,
		LinkDelayNs: 1500, AsymPct: 20,
		Scheme: "drill+rlb", Workload: "websearch",
		LoadPct: 60, MaxFlowKB: 5000,
		DurationUs: 5000, DrainUs: 15000,
		IncastDegree: 8, IncastKB: 64, IncastAtUs: 1200, IncastClient: 3, IncastReps: 5,
		Faults: []FaultSpec{
			{Leaf: 0, Spine: 1, DownAtUs: 1000, UpAtUs: 3000},
			{Leaf: 1, Spine: 2, DownAtUs: 500, UpAtUs: 900, RateDiv: 4},
		},
		NoRecirc: true, NoOrderGuard: true, QthFracPct: 40, DeltaTNs: 2500,
		PFCOff: true, SelectiveRepeat: true,
		ProbeUs: 100, Strict: true, Seeds: 3,
		Motiv:        &MotivSpec{Spines: 5, Hosts: 2, SprayPaths: 3, Bursts: 4, BgLoadPct: 55},
		LeakPutEvery: 9,
	}
}

func TestEncodeDecodeRoundTripByteStable(t *testing.T) {
	for name, s := range map[string]Spec{
		"full":    fullSpec(),
		"minimal": {SimSeed: 1, Leaves: 2, Spines: 2, HostsPerLeaf: 1, LinkGbps: 10, Scheme: "ecmp", Workload: "webserver", LoadPct: 10, DurationUs: 100, DrainUs: 3000},
		"zero":    {},
	} {
		first, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.HasSuffix(first, []byte("\n")) {
			t.Fatalf("%s: canonical form must end with a newline", name)
		}
		decoded, err := Decode(first)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		second, err := Encode(decoded)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: round trip not byte-stable:\n%s\nvs\n%s", name, first, second)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"simSeed": 1, "linkGpbs": 10}`))
	if err == nil {
		t.Fatal("typo'd field decoded silently; DisallowUnknownFields is the contract")
	}
	if !strings.Contains(err.Error(), "linkGpbs") {
		t.Fatalf("error does not name the offending field: %v", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	if _, err := Decode([]byte("{\"simSeed\": 1}\n{\"simSeed\": 2}\n")); err == nil {
		t.Fatal("two concatenated documents decoded silently")
	}
	if _, err := Decode([]byte(`{"simSeed": 1} garbage`)); err == nil {
		t.Fatal("trailing garbage decoded silently")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, in := range []string{"", "{", `{"simSeed": "notanumber"}`, "[]"} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Fatalf("malformed input %q decoded without error", in)
		}
	}
}

func TestGridsRoundTripByteStable(t *testing.T) {
	gs := []Grid{
		{
			Name: "demo", Seeds: 3,
			Base: fullSpec(),
			Axes: []Axis{
				{Field: "scheme", Strs: []string{"ecmp", "drill+rlb"}},
				{Field: "loadPct", Ints: []int{20, 40, 60}},
			},
		},
	}
	first, err := EncodeGrids(gs)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeGrids(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeGrids(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("grid round trip not byte-stable:\n%s\nvs\n%s", first, second)
	}
	if _, err := DecodeGrids([]byte(`[{"name": "x", "bsae": {}}]`)); err == nil {
		t.Fatal("typo'd grid field decoded silently")
	}
}

func TestNormalizeIsFixpoint(t *testing.T) {
	// Normalize of anything — including a wildly out-of-envelope spec — must
	// be a fixpoint, or shrinking would oscillate.
	inputs := []Spec{
		{},
		fullSpec(),
		{Leaves: 100, Spines: -3, HostsPerLeaf: 9, LinkGbps: 1000, LoadPct: 99,
			DurationUs: 1 << 20, IncastDegree: 50, IncastKB: 1 << 12,
			Faults: []FaultSpec{{Leaf: -4, Spine: 99, DownAtUs: -7, UpAtUs: 1 << 30, RateDiv: 77},
				{Leaf: -4, Spine: 99}, {Leaf: 1, Spine: 1}, {Leaf: 0, Spine: 1}, {Leaf: 0, Spine: 0}}},
	}
	for i, in := range inputs {
		once := in.Normalize()
		twice := once.Normalize()
		a, _ := Encode(once)
		b, _ := Encode(twice)
		if !bytes.Equal(a, b) {
			t.Fatalf("input %d: Normalize not a fixpoint:\n%s\nvs\n%s", i, a, b)
		}
	}
}

func TestNormalizeClearsFigureOnlyKnobs(t *testing.T) {
	n := fullSpec().Normalize()
	if n.Motiv != nil || n.IncastReps != 0 || n.PFCOff || n.SelectiveRepeat ||
		n.ProbeUs != 0 || n.NoRecirc || n.NoOrderGuard || n.QthFracPct != 0 ||
		n.DeltaTNs != 0 || n.LinkDelayNs != 0 || n.Strict || n.Seeds != 0 {
		t.Fatalf("figure-only knobs survived Normalize: %+v", n)
	}
	if n.DrainUs < n.DrainFloorUs() {
		t.Fatalf("normalized drain %dus below floor %dus", n.DrainUs, n.DrainFloorUs())
	}
}

func TestCloneDoesNotAlias(t *testing.T) {
	s := fullSpec()
	c := s.Clone()
	c.Faults[0].Spine = 99
	c.Motiv.SprayPaths = 99
	if s.Faults[0].Spine == 99 {
		t.Fatal("Clone aliased the fault slice")
	}
	if s.Motiv.SprayPaths == 99 {
		t.Fatal("Clone aliased the motiv block")
	}
}

func TestSchemeAndWorkloadNames(t *testing.T) {
	names := SchemeNames()
	if len(names) != 2*len(BaseSchemes) {
		t.Fatalf("SchemeNames returned %d names for %d bases", len(names), len(BaseSchemes))
	}
	for _, n := range names {
		if !ValidScheme(n) {
			t.Fatalf("SchemeNames entry %q not ValidScheme", n)
		}
	}
	for _, bad := range []string{"", "rlb", "+rlb", "drill+", "drill+rlb+rlb", "ECMP"} {
		if ValidScheme(bad) {
			t.Fatalf("ValidScheme accepted %q", bad)
		}
	}
	for _, w := range WorkloadNames() {
		if !ValidWorkload(w) {
			t.Fatalf("WorkloadNames entry %q not ValidWorkload", w)
		}
	}
	if ValidWorkload("bogus") {
		t.Fatal("ValidWorkload accepted a bogus name")
	}
}

func TestFaultSpecPredicates(t *testing.T) {
	if !(FaultSpec{DownAtUs: 10, UpAtUs: 20}).Kill() {
		t.Fatal("RateDiv 0 must be a kill window")
	}
	if (FaultSpec{RateDiv: 4}).Kill() {
		t.Fatal("RateDiv 4 is a degrade window, not a kill")
	}
	if !(FaultSpec{DownAtUs: 10, UpAtUs: 20}).Restores() {
		t.Fatal("UpAt > DownAt must restore")
	}
	if (FaultSpec{DownAtUs: 10, UpAtUs: 0}).Restores() {
		t.Fatal("UpAt 0 means never restore")
	}
}
