package trace

import (
	"fmt"
	"strings"
)

// EventKind enumerates the recovery-state-machine transitions the router
// emits. Each kind has a stable wire name (its String form), used by the
// event log renderer, the telemetry flight recorder, and every exporter —
// renaming a kind is a schema change and must bump telemetry.SchemaVersion.
type EventKind uint8

const (
	// EvUnknown is the zero value; it never appears in a healthy log.
	EvUnknown EventKind = iota
	// EvLineDown: an ingress declared its input line dead (underrun
	// strikes exhausted, or the port's crossbar died).
	EvLineDown
	// EvLineUp: a line probe detected the input line carrying words again.
	EvLineUp
	// EvDegrade: the watchdog (or a direct Degrade call) masked a port's
	// crossbar tile out of the token rotation.
	EvDegrade
	// EvRestoreDrain: Restore began; live ingresses pause while in-flight
	// packets drain toward quiescence.
	EvRestoreDrain
	// EvRestoreRejected: a scheduled restore control fired but the router
	// refused it (wrong port, not degraded, already restoring).
	EvRestoreRejected
	// EvReadmit: the drained fabric was reconfigured and the dead port
	// re-entered the token rotation (probation may follow).
	EvReadmit
	// EvLive: the re-admitted port's probation window expired; full
	// service resumed.
	EvLive
	// EvFailStop: an unrecoverable condition parked the router for good.
	// The event's Detail carries the reason.
	EvFailStop
	// EvChipKill: a fabric-level control removed a whole chip from the
	// cluster; its trunks went silent and its external ports drop offered
	// traffic. The event's Port field carries the chip index.
	EvChipKill
	// EvChipRestore: the fabric re-admitted a killed chip with a freshly
	// constructed replacement. Port carries the chip index.
	EvChipRestore
	// EvTrunkKill: a fabric-level control darkened one inter-chip trunk.
	// Port carries the trunk index; Detail names the trunk.
	EvTrunkKill
	// EvTrunkRestore: the fabric re-lit a darkened trunk. Port carries
	// the trunk index; Detail names the trunk.
	EvTrunkRestore
	// EvHealReroute: the healing plane recomputed per-chip route tables
	// against the surviving topology. Port carries the heal epoch; Detail
	// summarizes the dead set.
	EvHealReroute
	// EvPartition: the surviving topology is disconnected — some live
	// chips cannot reach others, and traffic between them fails loudly
	// (PartitionError) instead of holding frames forever. Port carries
	// the heal epoch.
	EvPartition
	// EvSLOViolation: a serve-mode guardrail gate failed its threshold
	// over the sampling window. Port is -1 (plane-wide); Detail carries
	// "gate=NAME value=V limit=L".
	EvSLOViolation
	// EvSLOClear: every guardrail gate passed again after a violation;
	// the daemon leaves degraded service. Port is -1.
	EvSLOClear
	// EvDrainStart: the daemon stopped admitting ingest and began
	// draining in-flight words toward a checkpoint (SIGTERM or /drain).
	// Port is -1.
	EvDrainStart
	// EvCheckpoint: the daemon wrote a checkpoint blob. Port is -1;
	// Detail carries "bytes=N" (and "forced" if the drain budget expired
	// before quiescence).
	EvCheckpoint

	numEventKinds
)

// wireNames are the stable on-the-wire names. They are frozen: golden
// logs, telemetry exports, and the fault-grammar tests all match on these
// exact bytes.
var wireNames = [numEventKinds]string{
	EvUnknown:         "unknown",
	EvLineDown:        "line-down",
	EvLineUp:          "line-up",
	EvDegrade:         "degrade",
	EvRestoreDrain:    "restore-drain",
	EvRestoreRejected: "restore-rejected",
	EvReadmit:         "readmit",
	EvLive:            "live",
	EvFailStop:        "fail-stop",
	EvChipKill:        "chip-kill",
	EvChipRestore:     "chip-restore",
	EvTrunkKill:       "trunk-kill",
	EvTrunkRestore:    "trunk-restore",
	EvHealReroute:     "heal-reroute",
	EvPartition:       "partition",
	EvSLOViolation:    "slo-violation",
	EvSLOClear:        "slo-clear",
	EvDrainStart:      "drain-start",
	EvCheckpoint:      "checkpoint",
}

// String returns the kind's stable wire name.
func (k EventKind) String() string {
	if int(k) < len(wireNames) {
		return wireNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindOf maps a wire name back to its EventKind (EvUnknown if the name is
// not recognized).
func KindOf(name string) EventKind {
	for k, n := range wireNames {
		if n == name && k != int(EvUnknown) {
			return EventKind(k)
		}
	}
	return EvUnknown
}

// Event is one recovery-state-machine transition observed by the router:
// a line going down or coming back, a port degrading, a restore draining,
// a port re-admitted, probation ending, or a fail-stop. Events are
// emitted only from the simulation's main goroutine (the cycle hook and
// between-cycles reconfiguration), so the log is deterministic.
type Event struct {
	Cycle int64
	Port  int
	Kind  EventKind
	// Detail is free-form context (the fail-stop reason); empty for most
	// kinds.
	Detail string
}

// String renders "kind" or "kind: detail" — the same bytes the
// stringly-typed log produced before kinds were typed.
func (e Event) String() string {
	if e.Detail == "" {
		return e.Kind.String()
	}
	return e.Kind.String() + ": " + e.Detail
}

// EventLog accumulates recovery events for tests and post-run reporting.
type EventLog struct {
	Events []Event
}

// Add appends one event.
func (l *EventLog) Add(cycle int64, port int, kind EventKind) {
	l.Events = append(l.Events, Event{Cycle: cycle, Port: port, Kind: kind})
}

// AddDetail appends one event carrying free-form context.
func (l *EventLog) AddDetail(cycle int64, port int, kind EventKind, detail string) {
	l.Events = append(l.Events, Event{Cycle: cycle, Port: port, Kind: kind, Detail: detail})
}

// String renders one event per line: "cycle port kind".
func (l *EventLog) String() string {
	var b strings.Builder
	for _, e := range l.Events {
		fmt.Fprintf(&b, "%d p%d %s\n", e.Cycle, e.Port, e.String())
	}
	return b.String()
}
