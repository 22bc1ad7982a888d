package telemetry

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/sim"
)

// EventKind classifies a recorded control-plane event.
type EventKind uint8

// Event kinds: the PFC, drop and RLB control-plane transitions a run emits.
const (
	PauseOn  EventKind = iota // switch sends PAUSE upstream (Aux = ingress bytes)
	PauseOff                  // switch sends RESUME (Aux = ingress bytes)
	Recirc                    // frame enters the recirculation loop (Aux = recirc count)
	Drop                      // frame dropped: pool overflow (Aux = shared bytes) or router
	CNMSent                   // predictor warns its upstream hop (Aux = ingress bytes)
	CNMRelay                  // spine relays a warning upstream (Aux = destination leaf)
	WarnSet                   // leaf agent marks an uplink warned (Aux = destination leaf)
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"PAUSE_ON", "PAUSE_OFF", "RECIRC", "DROP", "CNM_SENT", "CNM_RELAY", "WARN_SET",
}

// String returns the kind name.
func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventKindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded occurrence. Dev is the switch id, Port the ingress
// or uplink index, Flow/Seq the frame identity (zero for control frames),
// and Aux the kind-specific value noted on each kind.
type Event struct {
	At   sim.Time
	Kind EventKind
	Dev  int
	Port int
	Flow uint32
	Seq  uint32
	Aux  int
}

// String formats one event line.
func (e Event) String() string {
	return fmt.Sprintf("%-12v %-11s dev=%-4d port=%-3d flow=%-6d seq=%-6d aux=%d",
		e.At, e.Kind, e.Dev, e.Port, e.Flow, e.Seq, e.Aux)
}

// EventCap is how many events one run's log keeps.
const EventCap = 1 << 16

// EventLog records a run's events under the sampler's policy: storage is
// preallocated, the first EventCap events are kept, and later ones are only
// counted, so recording never allocates and a long run is never perturbed.
type EventLog struct {
	buf  []Event
	n    int
	drop int
}

func newEventLog() *EventLog { return &EventLog{buf: make([]Event, EventCap)} }

// Record appends ev, or counts it as dropped once the log is full.
func (l *EventLog) Record(ev Event) {
	if l.n == len(l.buf) {
		l.drop++
		return
	}
	l.buf[l.n] = ev
	l.n++
}
