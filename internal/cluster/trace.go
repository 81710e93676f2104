package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a trace event.
type EventKind string

// Trace event kinds. Stage and task events come from the scheduler, block
// events from the block store (plus lineage recomputes reported by the RDD
// layer), and broadcast events from Cluster.Broadcast.
const (
	EventStageStart          EventKind = "stage_start"
	EventStageEnd            EventKind = "stage_end"
	EventTaskStart           EventKind = "task_start"
	EventTaskSuccess         EventKind = "task_success"
	EventTaskFailInjected    EventKind = "task_fail_injected"
	EventTaskPressureTimeout EventKind = "task_pressure_timeout"
	EventTaskError           EventKind = "task_error"
	// EventTaskSpecLaunch marks the straggler monitor launching a
	// speculative duplicate chain (Attempt is -1: it announces the chain,
	// not one attempt). EventTaskStraggler marks an attempt slowed by the
	// straggler injector. EventTaskCancelled marks an attempt abandoned
	// because a rival attempt of the same task won the commit race; its
	// Outcome is "loser", and the winning attempt's task_success carries
	// Outcome "winner".
	EventTaskSpecLaunch EventKind = "task_spec_launch"
	EventTaskStraggler  EventKind = "task_straggler"
	EventTaskCancelled  EventKind = "task_cancelled"
	EventBlockCached    EventKind = "block_cached"
	EventBlockHit       EventKind = "block_hit"
	EventBlockMiss      EventKind = "block_miss"
	EventBlockEvict     EventKind = "block_evict"
	EventBlockRecompute EventKind = "block_recompute"
	EventBroadcast      EventKind = "broadcast"
	// Executor-loss recovery events. executor_lost marks a killed executor
	// (its Detail counts the dropped map outputs and cached partitions);
	// executor_blacklisted marks one crossing the repeated-failure
	// threshold into exponential backoff. fetch_failed is emitted by a
	// reduce attempt whose shuffle read touched lost map outputs, and
	// stage_resubmit marks the scheduler recomputing those outputs from
	// lineage before re-running the stage.
	EventExecutorLost        EventKind = "executor_lost"
	EventExecutorBlacklisted EventKind = "executor_blacklisted"
	EventFetchFailed         EventKind = "fetch_failed"
	EventStageResubmit       EventKind = "stage_resubmit"
	// Memory-bounded engine events. spill marks one block written to the
	// disk overflow tier (Bytes is the framed, compressed on-disk size;
	// Executor the host whose local disk holds it); spill_load marks its
	// read-back.
	EventSpill     EventKind = "spill"
	EventSpillLoad EventKind = "spill_load"
)

// Event is one structured record of the cluster's execution. Task and
// Attempt are -1 for events that are not bound to a task (stage lifecycle,
// broadcasts, block-store activity observed outside a traced task).
type Event struct {
	// Seq is a monotonically increasing sequence number; events with
	// higher Seq were recorded later.
	Seq int64 `json:"seq"`
	// Kind is the event type.
	Kind EventKind `json:"kind"`
	// Stage is the stage name (with the RDD layer's lineage tag) for
	// stage/task events; empty otherwise.
	Stage string `json:"stage,omitempty"`
	// StageID is the cluster-wide stage counter value, 0 when unbound.
	StageID int `json:"stageID,omitempty"`
	// Task is the task index within its stage, -1 when unbound.
	Task int `json:"task"`
	// Attempt is the zero-based attempt number, -1 when unbound.
	Attempt int `json:"attempt"`
	// Executor is the executor the event's subject ran on (task-level
	// events) or refers to (executor lifecycle events); -1 when the event
	// is not bound to an executor. Always exported, so recovery events in
	// JSON traces are attributable to hosts.
	Executor int `json:"executor"`
	// Bytes carries the payload size for shuffle/block/broadcast events.
	Bytes int64 `json:"bytes,omitempty"`
	// VirtualNS is the virtual duration charged by the event's subject
	// (e.g. a finished task attempt or stage), in nanoseconds.
	VirtualNS float64 `json:"virtualNS,omitempty"`
	// Speculative marks events of a speculative duplicate attempt chain.
	Speculative bool `json:"speculative,omitempty"`
	// Outcome is set on commit-race resolutions: "winner" on the
	// task_success of a raced task, "loser" on the task_cancelled of the
	// rival attempt.
	Outcome string `json:"outcome,omitempty"`
	// Detail is a free-form annotation: block ids ("rdd3/p7"), error
	// strings, failure causes.
	Detail string `json:"detail,omitempty"`
}

// Tracer is a bounded, concurrency-safe ring buffer of Events. A disabled
// tracer (the default) drops events with a single atomic load on the hot
// path, so leaving tracing compiled into the scheduler is free in production
// runs. When the ring wraps, the oldest events are overwritten and counted
// in Dropped.
type Tracer struct {
	enabled atomic.Bool

	mu      sync.Mutex
	events  []Event
	next    int
	full    bool
	seq     int64
	dropped int64
}

// defaultTraceCapacity bounds the event ring when no capacity is configured.
const defaultTraceCapacity = 1 << 16

// NewTracer creates a disabled tracer with the given ring capacity
// (<= 0 selects the default).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return &Tracer{events: make([]Event, capacity)}
}

// Enable turns event recording on.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Enabled reports whether events are being recorded. Callers that must build
// an Event (formatting a Detail string, say) should check this first to keep
// the disabled path allocation-free.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Emit records one event, stamping its sequence number. It is a no-op on a
// disabled tracer.
func (t *Tracer) Emit(e Event) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if t.full {
		t.dropped++
	}
	t.events[t.next] = e
	t.next = (t.next + 1) % len(t.events)
	if t.next == 0 {
		t.full = true
	}
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.events)
	}
	return t.next
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot copies the retained events, oldest first.
func (t *Tracer) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	if t.full {
		out = append(out, t.events[t.next:]...)
	}
	out = append(out, t.events[:t.next]...)
	return out
}

// Reset discards all retained events and the dropped counter; the sequence
// counter keeps advancing so Seq stays globally monotone.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.next = 0
	t.full = false
	t.dropped = 0
	t.mu.Unlock()
}

// traceExport is the JSON document WriteJSON produces.
type traceExport struct {
	DroppedEvents int64   `json:"droppedEvents"`
	Events        []Event `json:"events"`
}

// WriteJSON exports the retained events (oldest first) as one indented JSON
// document: {"droppedEvents": n, "events": [...]}.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := traceExport{DroppedEvents: t.Dropped(), Events: t.Snapshot()}
	if doc.Events == nil {
		doc.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Tracer returns the cluster's trace event sink.
func (c *Cluster) Tracer() *Tracer { return c.tracer }

// SetTracer replaces the cluster's trace sink, e.g. to share one event log
// across engine resets (experiments recreate the cluster per configuration
// sweep). It must be called while no job is running.
func (c *Cluster) SetTracer(t *Tracer) {
	if t != nil {
		c.tracer = t
	}
}

// WriteStageSummary renders a human-readable per-stage table: task counts,
// attempts, failures, and the virtual-time breakdown into compute,
// shuffle-wait, and scheduler overhead. Stages are printed oldest first.
func WriteStageSummary(w io.Writer, stages []StageStats) {
	fmt.Fprintf(w, "%-44s %6s %8s %5s %5s %12s %12s %12s %10s %10s\n",
		"stage", "tasks", "attempts", "fail", "spec", "virtual", "compute", "shuf-wait", "overhead", "wasted")
	var totVirtual, totCompute, totShuffle, totOverhead, totWasted time.Duration
	var totTasks, totAttempts, totFailures, totSpec int
	for _, s := range stages {
		name := s.Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		fmt.Fprintf(w, "%-44s %6d %8d %5d %5d %12s %12s %12s %10s %10s\n",
			name, s.Tasks, s.Attempts, s.Failures, s.SpeculativeTasks,
			roundDur(s.VirtualDuration), roundDur(s.ComputeDuration),
			roundDur(s.ShuffleWaitDuration), roundDur(s.SchedulerOverhead),
			roundDur(s.WastedDuration))
		totVirtual += s.VirtualDuration
		totCompute += s.ComputeDuration
		totShuffle += s.ShuffleWaitDuration
		totOverhead += s.SchedulerOverhead
		totWasted += s.WastedDuration
		totTasks += s.Tasks
		totAttempts += s.Attempts
		totFailures += s.Failures
		totSpec += s.SpeculativeTasks
	}
	fmt.Fprintf(w, "%-44s %6d %8d %5d %5d %12s %12s %12s %10s %10s\n",
		fmt.Sprintf("TOTAL (%d stages)", len(stages)), totTasks, totAttempts, totFailures, totSpec,
		roundDur(totVirtual), roundDur(totCompute), roundDur(totShuffle),
		roundDur(totOverhead), roundDur(totWasted))
}

func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
