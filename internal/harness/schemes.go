package harness

import (
	"fmt"
	"strings"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/topo"
)

// applyScheme installs the spec's load balancer into p: the base scheme's
// factory and, for a "+rlb" name, RLB parameters with the spec's ablation
// and sensitivity knobs applied (all-zero knobs = core.DefaultParams).
func applyScheme(p *topo.Params, s spec.Spec) error {
	base, withRLB := strings.CutSuffix(s.Scheme, spec.RLBSuffix)
	scheme, ok := lb.SchemeByName(base)
	if !ok {
		return fmt.Errorf("harness: unknown scheme %q (valid: %s)", base, strings.Join(spec.SchemeNames(), ", "))
	}
	p.LB = scheme.New(p.LinkDelay)
	if !withRLB {
		return nil
	}
	rp := core.DefaultParams(p.LinkDelay)
	rp.DisableRecirculation = s.NoRecirc
	if s.QthFracPct > 0 {
		rp.QthFraction = float64(s.QthFracPct) / 100
	}
	if s.DeltaTNs > 0 {
		rp.DeltaT = nsTime(s.DeltaTNs)
	}
	p.RLB = &rp
	return nil
}

// FourSchemes lists the paper's four base schemes in presentation order.
var FourSchemes = []string{"presto", "letflow", "hermes", "drill"}
