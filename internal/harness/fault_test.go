package harness

import (
	"testing"

	"github.com/rlb-project/rlb/internal/invariant"
	"github.com/rlb-project/rlb/internal/spec"
)

// faultCfg is a Poisson run with the given scheme and fault windows.
func faultCfg(scheme string, faults ...spec.FaultSpec) RunConfig {
	s := poissonSpec(scheme, 30, 21)
	s.Faults = faults
	return MustCompile(s)
}

// uplinkDown is a window cutting leaf 0's first spine uplink at downUs,
// restored at upUs (0 = never restored).
func uplinkDown(downUs, upUs int) spec.FaultSpec {
	return spec.FaultSpec{Leaf: 0, Spine: 0, DownAtUs: downUs, UpAtUs: upUs}
}

func TestLinkDownTriggersRLBReroutes(t *testing.T) {
	// Killing an uplink mid-run must show up as RLB reroutes: the agent is
	// notified and diverts flows the base LB still pins to the dead path.
	quiet := Run(faultCfg("ecmp+rlb"))
	faulted := Run(faultCfg("ecmp+rlb", uplinkDown(250, 0)))
	if faulted.Agents.Reroutes <= quiet.Agents.Reroutes {
		t.Fatalf("link-down did not increase reroutes: %d (faulted) vs %d (quiet)",
			faulted.Agents.Reroutes, quiet.Agents.Reroutes)
	}
	if faulted.Report.Completed == 0 {
		t.Fatal("no flows completed under fault with RLB")
	}
}

func TestFlowsCompleteAfterLinkUp(t *testing.T) {
	// Kill one of two uplinks for a window, restore it, and let the drain
	// window absorb the repair: every generated flow must still finish, for an
	// oblivious scheme (go-back-N repairs the wire loss) and for RLB.
	for _, scheme := range []string{"ecmp", "drill+rlb"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res := Run(faultCfg(scheme, uplinkDown(250, 1000)))
			if res.Report.Flows == 0 {
				t.Fatal("no flows generated")
			}
			if res.Report.Completed != res.Report.Flows {
				t.Fatalf("%d/%d flows completed after link restore",
					res.Report.Completed, res.Report.Flows)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("violations after recovery: %v", res.Violations)
			}
		})
	}
}

func TestECMPBlackholesIntoDeadLink(t *testing.T) {
	// ECMP has no path telemetry: with a dead uplink never restored, flows
	// hashed onto it keep forwarding into the hole. The end-of-run audit must
	// flag the stranded bytes, and the wire must have eaten frames.
	res := Run(faultCfg("ecmp", uplinkDown(250, 0)))
	if res.WireLost == 0 {
		t.Fatal("dead link lost no frames under ECMP")
	}
	if res.Report.Completed == res.Report.Flows {
		t.Fatal("every flow completed despite a permanent blackhole")
	}
	found := false
	for _, v := range res.Violations {
		if v.Rule == invariant.RuleBlackhole {
			found = true
		}
	}
	if !found {
		t.Fatalf("blackhole not detected; violations: %v", res.Violations)
	}
}

func TestDelayAwareSchemeAvoidsDeadLink(t *testing.T) {
	// Hermes reads the poisoned path telemetry and must keep completing flows
	// without RLB's help, losing far less than ECMP does.
	ecmp := Run(faultCfg("ecmp", uplinkDown(0, 0)))
	hermes := Run(faultCfg("hermes", uplinkDown(0, 0)))
	if hermes.Report.Completed != hermes.Report.Flows {
		t.Fatalf("%d/%d hermes flows completed around a day-one dead link",
			hermes.Report.Completed, hermes.Report.Flows)
	}
	if ecmp.Report.Completed == ecmp.Report.Flows {
		t.Fatal("ECMP unaffected by a dead link; scenario too gentle")
	}
}

func TestFlowsCompleteAfterDegrade(t *testing.T) {
	// Degrading an uplink to quarter rate mid-run (the §4.2 asymmetry, but
	// dynamic, never restored) must not break completion.
	degrade := spec.FaultSpec{Leaf: 0, Spine: 0, DownAtUs: 500, RateDiv: 4}
	res := Run(faultCfg("drill", degrade))
	if res.Report.Completed != res.Report.Flows {
		t.Fatalf("%d/%d flows completed after degrade", res.Report.Completed, res.Report.Flows)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}
