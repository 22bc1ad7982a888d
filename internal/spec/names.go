package spec

import (
	"strings"

	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/workload"
)

// SchemeNames returns every valid scheme name: the base schemes of
// lb.Schemes followed by their "+rlb" variants, in lb.Schemes order. The
// scenario generator indexes into this list, so its order is part of the
// fuzz-corpus format.
func SchemeNames() []string {
	out := make([]string, 0, 2*len(lb.Schemes))
	for _, s := range lb.Schemes {
		out = append(out, s.Name)
	}
	for _, s := range lb.Schemes {
		out = append(out, s.Name+RLBSuffix)
	}
	return out
}

// RLBSuffix marks a scheme name as the base load balancer with RLB layered
// on top ("drill+rlb").
const RLBSuffix = "+rlb"

// ValidScheme reports whether name parses as a known scheme: a base name,
// optionally suffixed with "+rlb". It is the name grammar harness.Compile
// accepts.
func ValidScheme(name string) bool {
	_, ok := lb.SchemeByName(strings.TrimSuffix(name, RLBSuffix))
	return ok
}

// ValidWorkload reports whether name resolves in the workload registry.
func ValidWorkload(name string) bool {
	_, err := workload.ByName(name)
	return err == nil
}
