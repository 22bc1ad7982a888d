package harness

import (
	"fmt"
	"strings"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/topo"
)

// baseFactory returns the base LB factory by name, with parameters matched
// to the paper's configurations.
func baseFactory(name string, linkDelay sim.Time) (lb.Factory, error) {
	switch name {
	case "ecmp":
		return lb.NewECMP(), nil
	case "presto":
		return lb.NewPresto(64*1000, fabric.DefaultMTU), nil
	case "letflow":
		return lb.NewLetFlow(50 * sim.Microsecond), nil
	case "hermes":
		return lb.NewHermes(fabric.DefaultMTU, 2*linkDelay), nil
	case "conga":
		return lb.NewCONGA(50 * sim.Microsecond), nil
	case "drill":
		return lb.NewDRILL(2, 1), nil
	default:
		return nil, fmt.Errorf("harness: unknown scheme %q (valid: %s)", name, schemeNameList())
	}
}

// applyScheme installs the spec's load balancer into p: the base scheme's
// factory and, for a "+rlb" name, RLB parameters with the spec's ablation
// and sensitivity knobs applied (all-zero knobs = core.DefaultParams).
func applyScheme(p *topo.Params, s spec.Spec) error {
	base, withRLB := strings.CutSuffix(s.Scheme, spec.RLBSuffix)
	f, err := baseFactory(base, p.LinkDelay)
	if err != nil {
		return err
	}
	p.LB = f
	if !withRLB {
		return nil
	}
	rp := core.DefaultParams(p.LinkDelay)
	rp.DisableRecirculation = s.NoRecirc
	rp.DisableOrderGuard = s.NoOrderGuard
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
