// Package spans folds the flat telemetry event stream into the causal
// span hierarchy the events imply — run → experiment → scenario →
// flow → control cycle → stage, with decisions, faults, drops, and
// anomalies as instants and queue samples as counter tracks — and
// exports it as Chrome trace-event JSON (the "JSON Array Format"), so
// any recorded run opens directly in Perfetto or chrome://tracing.
//
// Mapping:
//
//   - Each simulation run becomes one process (pid). Runs are detected
//     by virtual time moving backwards: a sweep's ordered replay
//     concatenates jobs whose clocks each start at zero, so a
//     timestamp regression is a job boundary.
//   - Within a run, tid 0 is the harness track (scenario spans), tid 1
//     the bottleneck link, and tid n+2 flow n.
//   - Span events (begin/end) become ph "B"/"E" pairs; stage events
//     open a stage span closed by the next stage or the enclosing
//     cycle's end, so the B/E nesting is always well formed.
//   - Experiment spans surround whole sweeps (many runs), which a
//     single pid cannot represent; they become global instants that
//     bracket the runs and label the process names in between.
//   - decision/early_exit/no_ack/action/drop/fault/anomaly events
//     become thread instants with their interesting fields as args;
//     queue samples become "queue bytes" / "capacity Mbps" counters.
//   - Per-packet enqueue events are deliberately omitted: at one
//     instant per packet they swamp the UI without adding structure
//     the queue counter does not already show.
//
// Virtual-time nanoseconds map to trace microseconds (the format's
// unit) as fractional ts values, preserving nanosecond resolution.
package spans

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"libra/internal/telemetry"
)

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant scope
	Args map[string]any `json:"args,omitempty"` // sorted keys via encoding/json
}

// Reserved thread ids within each run's process.
const (
	tidHarness = 0
	tidLink    = 1
	tidFlow0   = 2
)

// stack-entry kinds: explicit spans close by name, stage spans close
// implicitly on the next stage.
const (
	kindSpan = iota
	kindStage
)

type openSpan struct {
	name string
	kind int
}

// Builder consumes telemetry events in stream order and accumulates
// trace events. Feed with Add, seal with Finish, serialize with
// WriteTo.
type Builder struct {
	out []traceEvent

	pid     int
	started bool
	lastT   int64

	experiment string // active experiment label, spans runs
	scenario   string // current run's scenario label

	threads map[int]bool       // tids named in the current run
	stacks  map[int][]openSpan // per-tid open spans in the current run
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// Events returns the number of trace events accumulated so far.
func (b *Builder) Events() int { return len(b.out) }

// Runs returns the number of simulation runs (pids) detected so far.
func (b *Builder) Runs() int { return b.pid }

// us converts virtual nanoseconds to trace microseconds.
func us(t int64) float64 { return float64(t) / 1e3 }

// tidFor maps an event to its thread track.
func tidFor(e *telemetry.Event) int {
	if e.Flow >= 0 {
		return e.Flow + tidFlow0
	}
	if e.Type == telemetry.TypeSpan {
		return tidHarness
	}
	return tidLink
}

// Add folds one event in, in stream order.
func (b *Builder) Add(e *telemetry.Event) {
	if e.Type == telemetry.TypeSpan && strings.HasPrefix(e.Name, "experiment:") {
		b.addExperimentMarker(e)
		return
	}
	if !b.started || e.T < b.lastT {
		b.newRun()
	}
	b.lastT = e.T
	tid := tidFor(e)
	b.nameThread(tid)

	switch e.Type {
	case telemetry.TypeSpan:
		if e.Reason == telemetry.SpanBegin {
			if strings.HasPrefix(e.Name, "scenario:") {
				b.scenario = strings.TrimPrefix(e.Name, "scenario:")
				b.nameProcess()
			}
			args := map[string]any{}
			if e.XPrev != 0 {
				args["x_prev"] = e.XPrev
			}
			b.open(tid, e.Name, kindSpan, e.T, args)
		} else {
			b.closeNamed(tid, e.Name, e.T)
		}
	case telemetry.TypeStage:
		// A stage event is entry into a stage: it closes the previous
		// stage span (if one is open on this track) and opens the next.
		b.closeTopStage(tid, e.T)
		b.open(tid, e.Stage, kindStage, e.T, map[string]any{
			"rate_mbps": mbps(e.Rate), "x_prev_mbps": mbps(e.XPrev),
		})
	case telemetry.TypeQueue:
		b.counter("queue bytes", e.T, map[string]any{"bytes": e.Queue})
		if e.Rate > 0 {
			b.counter("capacity Mbps", e.T, map[string]any{"mbps": mbps(e.Rate)})
		}
	case telemetry.TypeEnqueue:
		// omitted by design: per-packet instants add volume, not shape
	case telemetry.TypeDecision:
		b.instant(tid, "decision "+e.Winner, e.T, map[string]any{
			"winner": e.Winner, "x_prev_mbps": mbps(e.XPrev),
			"u_prev": e.UPrev, "u_cl": e.UCl, "u_rl": e.URl,
			"rtt_ms": float64(e.RTT) / 1e6,
		})
	case telemetry.TypeEarlyExit:
		b.instant(tid, "early_exit", e.T, map[string]any{
			"x_cl_mbps": mbps(e.XCl), "x_rl_mbps": mbps(e.XRl),
		})
	case telemetry.TypeNoAck:
		name := "no_ack"
		if e.Reason != "" {
			name += " " + e.Reason
		}
		b.instant(tid, name, e.T, map[string]any{"x_prev_mbps": mbps(e.XPrev)})
	case telemetry.TypeAction:
		b.instant(tid, "rl_action", e.T, map[string]any{
			"action": e.Action, "rate_mbps": mbps(e.Rate), "reward": e.Reward,
		})
	case telemetry.TypeDrop:
		b.instant(tid, "drop "+e.Reason, e.T, map[string]any{
			"bytes": e.Bytes, "queue": e.Queue,
		})
	case telemetry.TypeFault:
		b.instant(tid, "fault "+e.Reason, e.T, nil)
	case telemetry.TypeAnomaly:
		b.instant(tid, "anomaly "+e.Reason, e.T, nil)
	}
}

// mbps converts bytes/sec to Mbit/s for arg readability.
func mbps(rate float64) float64 { return rate * 8 / 1e6 }

// addExperimentMarker handles the run-spanning experiment boundaries.
func (b *Builder) addExperimentMarker(e *telemetry.Event) {
	name := strings.TrimPrefix(e.Name, "experiment:")
	if e.Reason == telemetry.SpanBegin {
		b.experiment = name
	} else {
		b.experiment = ""
	}
	boundary := "begin"
	if e.Reason == telemetry.SpanEnd {
		boundary = "end"
	}
	pid := b.pid
	if pid == 0 {
		pid = 1 // marker before the first run: attribute to it
	}
	b.out = append(b.out, traceEvent{
		Name: "experiment:" + name + " " + boundary,
		Ph:   "i", S: "g",
		Ts: us(b.lastT), Pid: pid, Tid: tidHarness,
	})
}

// newRun closes the previous run's open spans and starts a fresh pid.
func (b *Builder) newRun() {
	b.closeRun()
	b.started = true
	b.pid++
	b.scenario = ""
	b.threads = map[int]bool{}
	b.stacks = map[int][]openSpan{}
	b.nameProcess()
}

// closeRun seals every open span of the current run at the last seen
// timestamp, keeping B/E pairs balanced across run boundaries and at
// end of stream (Perfetto tolerates unclosed B events, chrome://tracing
// renders them unbounded — closing explicitly is unambiguous).
func (b *Builder) closeRun() {
	if !b.started {
		return
	}
	for _, tid := range sortedTids(b.stacks) {
		st := b.stacks[tid]
		for i := len(st) - 1; i >= 0; i-- {
			b.out = append(b.out, traceEvent{
				Name: st[i].name, Ph: "E", Ts: us(b.lastT), Pid: b.pid, Tid: tid,
			})
		}
		delete(b.stacks, tid)
	}
}

// sortedTids returns the stack keys in ascending order so run-closing
// emission order is deterministic.
func sortedTids(m map[int][]openSpan) []int {
	out := make([]int, 0, len(m))
	for tid := range m {
		out = append(out, tid)
	}
	for i := 1; i < len(out); i++ { // tiny n: insertion sort
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// nameProcess (re-)labels the current pid from what is known so far.
func (b *Builder) nameProcess() {
	name := fmt.Sprintf("run %d", b.pid)
	if b.scenario != "" {
		name += " · " + b.scenario
	}
	if b.experiment != "" {
		name += " · " + b.experiment
	}
	b.out = append(b.out, traceEvent{
		Name: "process_name", Ph: "M", Pid: b.pid, Tid: tidHarness,
		Args: map[string]any{"name": name},
	})
}

// nameThread emits thread_name metadata on a tid's first use in a run.
func (b *Builder) nameThread(tid int) {
	if b.threads[tid] {
		return
	}
	b.threads[tid] = true
	var name string
	switch tid {
	case tidHarness:
		name = "harness"
	case tidLink:
		name = "link"
	default:
		name = fmt.Sprintf("flow %d", tid-tidFlow0)
	}
	b.out = append(b.out, traceEvent{
		Name: "thread_name", Ph: "M", Pid: b.pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// open pushes a span and emits its B event.
func (b *Builder) open(tid int, name string, kind int, t int64, args map[string]any) {
	b.stacks[tid] = append(b.stacks[tid], openSpan{name: name, kind: kind})
	if len(args) == 0 {
		args = nil
	}
	b.out = append(b.out, traceEvent{
		Name: name, Ph: "B", Ts: us(t), Pid: b.pid, Tid: tid, Args: args,
	})
}

// closeNamed closes the named span, first sealing anything stacked
// above it (an abandoned cycle or stage) so nesting stays LIFO. An end
// with no matching begin — a dump file that starts mid-cycle — is
// dropped.
func (b *Builder) closeNamed(tid int, name string, t int64) {
	st := b.stacks[tid]
	at := -1
	for i := len(st) - 1; i >= 0; i-- {
		if st[i].name == name && st[i].kind == kindSpan {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	for i := len(st) - 1; i >= at; i-- {
		b.out = append(b.out, traceEvent{
			Name: st[i].name, Ph: "E", Ts: us(t), Pid: b.pid, Tid: tid,
		})
	}
	b.stacks[tid] = st[:at]
}

// closeTopStage ends the open stage span on tid, if one is on top.
func (b *Builder) closeTopStage(tid int, t int64) {
	st := b.stacks[tid]
	if n := len(st); n > 0 && st[n-1].kind == kindStage {
		b.out = append(b.out, traceEvent{
			Name: st[n-1].name, Ph: "E", Ts: us(t), Pid: b.pid, Tid: tid,
		})
		b.stacks[tid] = st[:n-1]
	}
}

// instant emits a thread-scoped instant event.
func (b *Builder) instant(tid int, name string, t int64, args map[string]any) {
	if len(args) == 0 {
		args = nil
	}
	b.out = append(b.out, traceEvent{
		Name: name, Ph: "i", S: "t", Ts: us(t), Pid: b.pid, Tid: tid, Args: args,
	})
}

// counter emits a counter sample (its own track per name in the UI).
func (b *Builder) counter(name string, t int64, args map[string]any) {
	b.out = append(b.out, traceEvent{
		Name: name, Ph: "C", Ts: us(t), Pid: b.pid, Tid: tidLink, Args: args,
	})
}

// Finish seals open spans at end of stream. The builder must not be
// fed after Finish.
func (b *Builder) Finish() { b.closeRun() }

// WriteTo serializes the accumulated trace as a JSON object with a
// traceEvents array — the envelope both Perfetto and chrome://tracing
// accept — streaming one event per line. Output is deterministic:
// encoding/json sorts the args maps.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if _, err := io.WriteString(cw, "{\"traceEvents\":[\n"); err != nil {
		return cw.n, err
	}
	for i := range b.out {
		line, err := json.Marshal(&b.out[i])
		if err != nil {
			return cw.n, err
		}
		if i > 0 {
			if _, err := io.WriteString(cw, ",\n"); err != nil {
				return cw.n, err
			}
		}
		if _, err := cw.Write(line); err != nil {
			return cw.n, err
		}
	}
	_, err := io.WriteString(cw, "\n]}\n")
	return cw.n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Convert is the one-shot path: decode a JSONL event stream, build,
// and write the Chrome trace JSON.
func Convert(r io.Reader, w io.Writer) error {
	b := NewBuilder()
	if err := telemetry.ReadEach(r, b.Add); err != nil {
		return err
	}
	b.Finish()
	_, err := b.WriteTo(w)
	return err
}
