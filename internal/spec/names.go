package spec

import (
	"strings"

	"github.com/rlb-project/rlb/internal/workload"
)

// BaseSchemes are the paper's six base load balancers, in the canonical
// order shared by the scheme registry, the scenario generator's draw table,
// and every valid-name error message. Each combines with the "+rlb" suffix.
// Order is part of the fuzz-corpus format: the generator indexes into
// SchemeNames, so reordering would silently re-interpret committed corpus
// entries.
var BaseSchemes = []string{"ecmp", "presto", "letflow", "hermes", "drill", "conga"}

// SchemeNames returns every valid scheme name: the base schemes followed by
// their "+rlb" variants, in BaseSchemes order.
func SchemeNames() []string {
	out := make([]string, 0, 2*len(BaseSchemes))
	out = append(out, BaseSchemes...)
	for _, b := range BaseSchemes {
		out = append(out, b+RLBSuffix)
	}
	return out
}

// RLBSuffix marks a scheme name as the base load balancer with RLB layered
// on top ("drill+rlb").
const RLBSuffix = "+rlb"

// ValidScheme reports whether name parses as a known scheme: a base name,
// optionally suffixed with "+rlb". It is the name grammar harness.Compile
// accepts; a harness test pins the two registries in agreement.
func ValidScheme(name string) bool {
	base := strings.TrimSuffix(name, RLBSuffix)
	for _, b := range BaseSchemes {
		if base == b {
			return true
		}
	}
	return false
}

// WorkloadNames returns the valid workload distribution names in
// presentation order.
func WorkloadNames() []string { return workload.Names() }

// ValidWorkload reports whether name resolves in the workload registry.
func ValidWorkload(name string) bool {
	_, err := workload.ByName(name)
	return err == nil
}
