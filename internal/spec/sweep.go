package spec

import "fmt"

// Axis is one named sweep dimension of a Grid: the JSON field name of a Spec
// knob plus the values it takes. Exactly one of Ints/Strs must be set;
// boolean fields sweep as Ints (0/1).
type Axis struct {
	Field string   `json:"field"`
	Ints  []int    `json:"ints,omitempty"`
	Strs  []string `json:"strs,omitempty"`
}

// Len returns the number of values on the axis.
func (a Axis) Len() int {
	if len(a.Strs) > 0 {
		return len(a.Strs)
	}
	return len(a.Ints)
}

// apply writes the axis's i-th value into s.
func (a Axis) apply(s *Spec, i int) error {
	if len(a.Strs) > 0 {
		if len(a.Ints) > 0 {
			return fmt.Errorf("spec: axis %q sets both ints and strs", a.Field)
		}
		return s.SetStr(a.Field, a.Strs[i])
	}
	return s.SetInt(a.Field, a.Ints[i])
}

// Grid is a declarative sweep: a base Spec plus named axes, expanded by
// Cells into the row-major outer product (the last axis varies fastest —
// the iteration order of the nested loops the figure builders used to
// hand-roll). Every paper figure is expressed as one or more Grids; the
// generic engine harness.RunGrid compiles and runs the cells.
type Grid struct {
	Name string `json:"name"`
	// Seeds is how many seeds the sweep engine averages each cell over
	// (cell k uses SimSeed, SimSeed+stride, ...; 0 = 1).
	Seeds int    `json:"seeds,omitempty"`
	Base  Spec   `json:"base"`
	Axes  []Axis `json:"axes,omitempty"`
}

// Size returns the number of cells the grid expands to.
func (g Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= a.Len()
	}
	return n
}

// Cells expands the grid into its cell specs in row-major order. Each cell
// is a deep copy of Base with every axis's value applied, so cells never
// alias each other's Faults or Motiv.
func (g Grid) Cells() ([]Spec, error) {
	for _, a := range g.Axes {
		if a.Len() == 0 {
			return nil, fmt.Errorf("spec: grid %q axis %q has no values", g.Name, a.Field)
		}
	}
	n := g.Size()
	out := make([]Spec, 0, n)
	idx := make([]int, len(g.Axes))
	for c := 0; c < n; c++ {
		cell := g.Base.Clone()
		rem := c
		for ai := len(g.Axes) - 1; ai >= 0; ai-- {
			idx[ai] = rem % g.Axes[ai].Len()
			rem /= g.Axes[ai].Len()
		}
		for ai, a := range g.Axes {
			if err := a.apply(&cell, idx[ai]); err != nil {
				return nil, fmt.Errorf("spec: grid %q: %w", g.Name, err)
			}
		}
		out = append(out, cell)
	}
	return out, nil
}

// motiv resolves the Motiv block for a motivation-axis field; sweeping one
// on a fabric base (no motiv block) is a grid-authoring error.
func (s *Spec) motiv(field string) (*MotivSpec, error) {
	if s.Motiv == nil {
		return nil, fmt.Errorf("field %q requires a motivation base (motiv block)", field)
	}
	return s.Motiv, nil
}

// SetInt writes an integer-valued field by its JSON name. Boolean fields
// accept 0/1. Unknown fields error — the sweep layer shares the
// fail-loudly contract of Decode.
func (s *Spec) SetInt(field string, v int) error {
	switch field {
	case "genSeed":
		s.GenSeed = uint64(v)
	case "simSeed":
		s.SimSeed = uint64(v)
	case "leaves":
		s.Leaves = v
	case "spines":
		s.Spines = v
	case "hostsPerLeaf":
		s.HostsPerLeaf = v
	case "linkGbps":
		s.LinkGbps = v
	case "linkDelayNs":
		s.LinkDelayNs = v
	case "asymPct":
		s.AsymPct = v
	case "loadPct":
		s.LoadPct = v
	case "maxFlowKB":
		s.MaxFlowKB = v
	case "durationUs":
		s.DurationUs = v
	case "drainUs":
		s.DrainUs = v
	case "incastDegree":
		s.IncastDegree = v
	case "incastKB":
		s.IncastKB = v
	case "incastAtUs":
		s.IncastAtUs = v
	case "incastClient":
		s.IncastClient = v
	case "incastReps":
		s.IncastReps = v
	case "noRecirc":
		s.NoRecirc = v != 0
	case "noOrderGuard":
		s.NoOrderGuard = v != 0
	case "qthFracPct":
		s.QthFracPct = v
	case "deltaTNs":
		s.DeltaTNs = v
	case "pfcOff":
		s.PFCOff = v != 0
	case "selectiveRepeat":
		s.SelectiveRepeat = v != 0
	case "probeUs":
		s.ProbeUs = v
	case "strict":
		s.Strict = v != 0
	case "seeds":
		s.Seeds = v
	case "leakPutEvery":
		s.LeakPutEvery = v
	case "sprayPaths":
		m, err := s.motiv(field)
		if err != nil {
			return err
		}
		m.SprayPaths = v
	case "bursts":
		m, err := s.motiv(field)
		if err != nil {
			return err
		}
		m.Bursts = v
	case "motivSpines":
		m, err := s.motiv(field)
		if err != nil {
			return err
		}
		m.Spines = v
	case "motivHosts":
		m, err := s.motiv(field)
		if err != nil {
			return err
		}
		m.Hosts = v
	case "bgLoadPct":
		m, err := s.motiv(field)
		if err != nil {
			return err
		}
		m.BgLoadPct = v
	default:
		return fmt.Errorf("unknown int field %q", field)
	}
	return nil
}

// SetStr writes a string-valued field by its JSON name.
func (s *Spec) SetStr(field, v string) error {
	switch field {
	case "scheme":
		s.Scheme = v
	case "workload":
		s.Workload = v
	default:
		return fmt.Errorf("unknown string field %q", field)
	}
	return nil
}
