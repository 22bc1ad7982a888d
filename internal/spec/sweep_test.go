package spec

import (
	"strings"
	"testing"
)

func TestCellsRowMajorLastAxisFastest(t *testing.T) {
	g := Grid{
		Name: "order",
		Base: Spec{Scheme: "ecmp"},
		Axes: []Axis{
			{Field: "scheme", Strs: []string{"ecmp", "drill"}},
			{Field: "loadPct", Ints: []int{10, 20, 30}},
		},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != g.Size() || g.Size() != 6 {
		t.Fatalf("expected 6 cells, got %d (Size=%d)", len(cells), g.Size())
	}
	want := []struct {
		scheme string
		load   int
	}{
		{"ecmp", 10}, {"ecmp", 20}, {"ecmp", 30},
		{"drill", 10}, {"drill", 20}, {"drill", 30},
	}
	for i, w := range want {
		if cells[i].Scheme != w.scheme || cells[i].LoadPct != w.load {
			t.Fatalf("cell %d = (%s, %d), want (%s, %d) — row-major order broken",
				i, cells[i].Scheme, cells[i].LoadPct, w.scheme, w.load)
		}
	}
}

func TestCellsDeepCopyBase(t *testing.T) {
	g := Grid{
		Name: "alias",
		Base: Spec{
			Faults: []FaultSpec{{Leaf: 0, Spine: 0, DownAtUs: 10, UpAtUs: 20}},
			Motiv:  &MotivSpec{Spines: 5, Hosts: 2, SprayPaths: 1, Bursts: 1},
		},
		Axes: []Axis{{Field: "sprayPaths", Ints: []int{1, 2, 3}}},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells[0].Faults[0].Spine = 99
	if g.Base.Faults[0].Spine == 99 || cells[1].Faults[0].Spine == 99 {
		t.Fatal("cells alias the base's fault slice")
	}
	if cells[0].Motiv.SprayPaths != 1 || cells[2].Motiv.SprayPaths != 3 {
		t.Fatalf("motiv axis written through a shared pointer: %d/%d",
			cells[0].Motiv.SprayPaths, cells[2].Motiv.SprayPaths)
	}
}

func TestCellsNoAxes(t *testing.T) {
	g := Grid{Name: "point", Base: Spec{Scheme: "ecmp"}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Scheme != "ecmp" {
		t.Fatalf("axis-free grid must expand to exactly its base, got %d cells", len(cells))
	}
}

func TestCellsErrors(t *testing.T) {
	empty := Grid{Name: "g", Axes: []Axis{{Field: "loadPct"}}}
	if _, err := empty.Cells(); err == nil || !strings.Contains(err.Error(), "no values") {
		t.Fatalf("empty axis not rejected: %v", err)
	}
	unknown := Grid{Name: "g", Axes: []Axis{{Field: "bogus", Ints: []int{1}}}}
	if _, err := unknown.Cells(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown axis field not rejected: %v", err)
	}
	both := Grid{Name: "g", Axes: []Axis{{Field: "scheme", Ints: []int{1}, Strs: []string{"ecmp"}}}}
	if _, err := both.Cells(); err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("ints+strs axis not rejected: %v", err)
	}
	motivless := Grid{Name: "g", Axes: []Axis{{Field: "sprayPaths", Ints: []int{1}}}}
	if _, err := motivless.Cells(); err == nil || !strings.Contains(err.Error(), "motiv") {
		t.Fatalf("motiv axis on fabric base not rejected: %v", err)
	}
}

// TestSetIntCoversEveryIntField drives SetInt for each supported field and
// asserts the write landed, so a field added to Spec without a SetInt case
// (or vice versa) fails here instead of silently not sweeping.
func TestSetIntCoversEveryIntField(t *testing.T) {
	intFields := map[string]func(Spec) int{
		"genSeed":         func(s Spec) int { return int(s.GenSeed) },
		"simSeed":         func(s Spec) int { return int(s.SimSeed) },
		"leaves":          func(s Spec) int { return s.Leaves },
		"spines":          func(s Spec) int { return s.Spines },
		"hostsPerLeaf":    func(s Spec) int { return s.HostsPerLeaf },
		"linkGbps":        func(s Spec) int { return s.LinkGbps },
		"linkDelayNs":     func(s Spec) int { return s.LinkDelayNs },
		"asymPct":         func(s Spec) int { return s.AsymPct },
		"loadPct":         func(s Spec) int { return s.LoadPct },
		"maxFlowKB":       func(s Spec) int { return s.MaxFlowKB },
		"durationUs":      func(s Spec) int { return s.DurationUs },
		"drainUs":         func(s Spec) int { return s.DrainUs },
		"incastDegree":    func(s Spec) int { return s.IncastDegree },
		"incastKB":        func(s Spec) int { return s.IncastKB },
		"incastAtUs":      func(s Spec) int { return s.IncastAtUs },
		"incastClient":    func(s Spec) int { return s.IncastClient },
		"incastReps":      func(s Spec) int { return s.IncastReps },
		"qthFracPct":      func(s Spec) int { return s.QthFracPct },
		"deltaTNs":        func(s Spec) int { return s.DeltaTNs },
		"probeUs":         func(s Spec) int { return s.ProbeUs },
		"seeds":           func(s Spec) int { return s.Seeds },
		"leakPutEvery":    func(s Spec) int { return s.LeakPutEvery },
		"noRecirc":        func(s Spec) int { return boolToInt(s.NoRecirc) },
		"noOrderGuard":    func(s Spec) int { return boolToInt(s.NoOrderGuard) },
		"pfcOff":          func(s Spec) int { return boolToInt(s.PFCOff) },
		"selectiveRepeat": func(s Spec) int { return boolToInt(s.SelectiveRepeat) },
		"strict":          func(s Spec) int { return boolToInt(s.Strict) },
	}
	for field, read := range intFields {
		var s Spec
		if err := s.SetInt(field, 1); err != nil {
			t.Fatalf("SetInt(%q): %v", field, err)
		}
		if read(s) != 1 {
			t.Fatalf("SetInt(%q, 1) did not land", field)
		}
	}
	motivFields := map[string]func(Spec) int{
		"sprayPaths":  func(s Spec) int { return s.Motiv.SprayPaths },
		"bursts":      func(s Spec) int { return s.Motiv.Bursts },
		"motivSpines": func(s Spec) int { return s.Motiv.Spines },
		"motivHosts":  func(s Spec) int { return s.Motiv.Hosts },
		"bgLoadPct":   func(s Spec) int { return s.Motiv.BgLoadPct },
	}
	for field, read := range motivFields {
		s := Spec{Motiv: &MotivSpec{}}
		if err := s.SetInt(field, 7); err != nil {
			t.Fatalf("SetInt(%q): %v", field, err)
		}
		if read(s) != 7 {
			t.Fatalf("SetInt(%q, 7) did not land", field)
		}
		var fabric Spec
		if err := fabric.SetInt(field, 7); err == nil {
			t.Fatalf("SetInt(%q) on a fabric spec must error (no motiv block)", field)
		}
	}
	var s Spec
	if err := s.SetInt("bogus", 1); err == nil {
		t.Fatal("unknown int field accepted")
	}
}

func TestSetStr(t *testing.T) {
	var s Spec
	for field, read := range map[string]func() string{
		"scheme":   func() string { return s.Scheme },
		"workload": func() string { return s.Workload },
	} {
		if err := s.SetStr(field, "x"); err != nil {
			t.Fatalf("SetStr(%q): %v", field, err)
		}
		if read() != "x" {
			t.Fatalf("SetStr(%q) did not land", field)
		}
	}
	if err := s.SetStr("loadPct", "50"); err == nil {
		t.Fatal("int field accepted through SetStr")
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
