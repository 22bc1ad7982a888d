package topo

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// AttachTelemetry registers the network's standard probe set on reg: the
// per-switch and per-port congestion signals the paper's timeline figures
// are drawn from, plus host transport and RLB agent state. It also points
// every switch at reg's event log, so PFC, drop, recirculation and CNM
// events are recorded alongside the series. Registration is cold-path
// (construction time); every probe body is a read-only fold over existing
// counters, and recording an event writes only to the log, so neither can
// perturb the run.
//
// Probe naming: `leaf<i>/...` and `spine<i>/...` for switches, with
// per-port series under `/p<j>/`; `host<i>/...` for transports;
// `rlb/leaf<i>/...` for agent counters. Counters (pauses, recircs, drops,
// warnings) are cumulative; gauges (shared, q, paused, inflight, ratebps)
// are instantaneous.
func (n *Network) AttachTelemetry(reg *telemetry.Registry) {
	for i, sw := range n.Leaves {
		attachSwitch(reg, fmt.Sprintf("leaf%d", i), sw)
	}
	for i, sw := range n.Spines {
		attachSwitch(reg, fmt.Sprintf("spine%d", i), sw)
	}
	for _, h := range n.Hosts {
		h := h
		name := fmt.Sprintf("host%d", h.ID)
		reg.Register(name+"/active", func() int64 { return h.TelemetrySnapshot().ActiveSenders })
		reg.Register(name+"/inflight", func() int64 { return h.TelemetrySnapshot().Inflight })
		reg.Register(name+"/una", func() int64 { return h.TelemetrySnapshot().Una })
		reg.Register(name+"/next", func() int64 { return h.TelemetrySnapshot().Next })
		reg.Register(name+"/ratebps", func() int64 { return h.TelemetrySnapshot().RateBps })
	}
	for l, a := range n.Agents {
		if a == nil {
			continue
		}
		a := a
		name := fmt.Sprintf("rlb/leaf%d", l)
		reg.Register(name+"/warnings", func() int64 { return int64(a.Stats.WarningsRcvd) })
		reg.Register(name+"/recircs", func() int64 { return int64(a.Stats.Recircs) })
		reg.Register(name+"/reroutes", func() int64 { return int64(a.Stats.Reroutes) })
	}
}

// attachSwitch registers one switch's shared-pool, PFC, and per-port series
// and attaches the event log.
func attachSwitch(reg *telemetry.Registry, name string, sw *switchsim.Switch) {
	sw.Events = reg.Events()
	reg.Register(name+"/shared", func() int64 { return int64(sw.SharedUsed()) })
	reg.Register(name+"/pauses", func() int64 { return int64(sw.Stats.PauseSent) })
	reg.Register(name+"/recirced", func() int64 { return int64(sw.Stats.Recirced) })
	reg.Register(name+"/dropped", func() int64 { return int64(sw.Stats.Dropped) })
	for j := 0; j < sw.NumPorts(); j++ {
		p := sw.Port(j)
		pname := fmt.Sprintf("%s/p%d", name, j)
		reg.Register(pname+"/q", func() int64 { return int64(p.QueuedBytes(fabric.PrioData)) })
		reg.Register(pname+"/paused", func() int64 {
			if p.Paused(fabric.PrioData) {
				return 1
			}
			return 0
		})
	}
}
