// Package trace records the observable events of a simulation —
// launches, preemption requests, per-block preemptions, handovers,
// deadline outcomes — for debugging, visualization and tests. Recording
// is optional: the engine emits events only when a Recorder is
// installed, and pays nothing when none is.
//
// Events carry typed payloads (technique progress, estimated and
// measured latencies, bytes moved, instructions wasted) and are emitted
// in nondecreasing At order; the full schema, its ordering guarantees
// and the Perfetto export mapping are documented in
// docs/observability.md.
//
// Consumers implement Recorder; the package ships Collector, which
// keeps every event in memory. A recorded stream renders to
// Chrome/Perfetto trace JSON via WritePerfetto.
package trace

import (
	"fmt"

	"chimera/internal/units"
)

// Kind classifies a trace event.
type Kind int

const (
	// KernelLaunch marks a kernel instance entering the machine.
	KernelLaunch Kind = iota
	// KernelFinish marks a kernel completing its grid.
	KernelFinish
	// KernelKill marks a kernel aborted at its deadline.
	KernelKill
	// Request marks a preemption request being issued.
	Request
	// FlushTB marks one thread block dropped by SM flushing: its
	// progress is discarded and the block re-executes from scratch.
	FlushTB
	// SaveTB marks one thread block frozen for context switching; its
	// context begins streaming out at this cycle.
	SaveTB
	// DrainTB marks one thread block left to run to completion under
	// SM draining, with its slot unfilled.
	DrainTB
	// SaveDone marks the completion of an SM's context save: every
	// frozen block's state has streamed out and the blocks re-enter
	// their kernel's pending queue.
	SaveDone
	// RestoreTB marks a switched block's context streaming back in.
	RestoreTB
	// Handover marks an SM completing its preemption and changing owner.
	Handover
	// DeadlineMiss marks a periodic-task instance killed at its deadline.
	DeadlineMiss
	// Stall marks an injected preemption-technique stall (fault plane):
	// the request's handover is held open for Dur extra cycles.
	Stall
	// Escalate marks the engine watchdog escalating an overdue
	// preemption request to stronger techniques (drain→flush→switch).
	Escalate
)

// String names the kind as used in dumps.
func (k Kind) String() string {
	switch k {
	case KernelLaunch:
		return "launch"
	case KernelFinish:
		return "finish"
	case KernelKill:
		return "kill"
	case Request:
		return "request"
	case FlushTB:
		return "flush"
	case SaveTB:
		return "save"
	case DrainTB:
		return "drain"
	case SaveDone:
		return "save-done"
	case RestoreTB:
		return "restore"
	case Handover:
		return "handover"
	case DeadlineMiss:
		return "deadline-miss"
	case Stall:
		return "stall"
	case Escalate:
		return "escalate"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence. At, Kind, Kernel, SM and TB are
// always meaningful; the payload fields below them are optional and
// hold their zero value when not applicable to the kind (the per-kind
// population rules are tabulated in docs/observability.md).
type Event struct {
	// At is the emission cycle. Within one recording, events arrive in
	// nondecreasing At order.
	At units.Cycles
	// Kind classifies the event.
	Kind Kind
	// Kernel is the subject kernel's label, when applicable.
	Kernel string
	// SM is the SM id, -1 when the event is not SM-scoped.
	SM int
	// TB is the thread-block index, -1 when not block-scoped.
	TB int

	// Other is the counterpart kernel label: the requester on Request
	// and Handover events.
	Other string
	// EstLat is the estimated preemption latency attached to a Request
	// (what the policy believed when deciding).
	EstLat units.Cycles
	// Lat is a measured latency: time since the request on Handover,
	// time until resumption (queueing plus transfer) on RestoreTB.
	Lat units.Cycles
	// Dur is the modelled duration of the event's operation: the
	// context-transfer time on SaveTB/SaveDone/RestoreTB, the predicted
	// remaining execution of a DrainTB block, the kernel's lifetime on
	// KernelFinish/KernelKill.
	Dur units.Cycles
	// Insts counts warp instructions: discarded progress on FlushTB,
	// saved progress on SaveTB, executed-so-far on DrainTB.
	Insts int64
	// Bytes is the context volume moved on SaveTB/SaveDone/RestoreTB.
	Bytes units.Bytes

	// Detail carries any remaining human-readable context.
	Detail string
}

// String renders the event as one dump line.
func (e Event) String() string {
	s := fmt.Sprintf("%12s  %-13s", e.At, e.Kind)
	if e.Kernel != "" {
		s += " " + e.Kernel
	}
	if e.SM >= 0 {
		s += fmt.Sprintf(" sm=%d", e.SM)
	}
	if e.TB >= 0 {
		s += fmt.Sprintf(" tb=%d", e.TB)
	}
	if e.Other != "" {
		s += " peer=" + e.Other
	}
	if e.EstLat > 0 {
		s += " est=" + e.EstLat.String()
	}
	if e.Lat > 0 {
		s += " lat=" + e.Lat.String()
	}
	if e.Dur > 0 {
		s += " dur=" + e.Dur.String()
	}
	if e.Insts > 0 {
		s += fmt.Sprintf(" insts=%d", e.Insts)
	}
	if e.Bytes > 0 {
		s += fmt.Sprintf(" bytes=%d", e.Bytes)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Recorder consumes events as the simulation emits them. Record is
// called synchronously from the engine's event loop, so implementations
// must be cheap; expensive processing belongs after the run.
type Recorder interface {
	// Record consumes one event.
	Record(Event)
}

// Collector is an unbounded in-memory Recorder retaining every event in
// emission order — the input shape WritePerfetto consumes.
type Collector struct {
	events []Event
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record implements Recorder.
func (c *Collector) Record(e Event) { c.events = append(c.events, e) }

// Len reports the number of retained events.
func (c *Collector) Len() int { return len(c.events) }

// Events returns the retained events in emission order. The returned
// slice is the collector's backing store; callers must not mutate it
// while still recording.
func (c *Collector) Events() []Event { return c.events }
