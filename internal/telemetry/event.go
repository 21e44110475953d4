// Package telemetry is the framework's zero-dependency observability
// layer: a Tracer emitting typed control-plane events as JSONL, and a
// metrics Registry (counters, gauges, fixed-bucket histograms) whose
// snapshots export as JSON or Prometheus text exposition format.
//
// The package is allocation-conscious by construction: the disabled
// path is a cached-bool branch at every call site (see Nop and the
// Traceable convention), and the enabled path encodes events into a
// reusable buffer with no per-event allocation.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// SchemaVersion is the current event-schema version. Recorder stamps
// it into the V field of every event it writes (unless the emitter set
// one already), so a JSONL file self-describes which schema produced
// it and `libra-trace -validate` can reject streams from the future.
// History: 1 = PR 1 flat event set; 2 = adds v/name fields and the
// span/anomaly event types; 3 = adds the profile event type and the
// "ce" enqueue reason for ECN-marked packets.
const SchemaVersion = 3

// Type discriminates the payload of an Event.
type Type string

// Event types emitted across the stack.
const (
	// TypeStage marks a control-cycle stage transition in core.Libra
	// (Stage carries the stage entered, Rate the applied rate).
	TypeStage Type = "stage"
	// TypeEarlyExit marks the th1 divergence early exit out of the
	// exploration stage (XCl/XRl carry the diverged candidates).
	TypeEarlyExit Type = "early_exit"
	// TypeDecision is the end-of-cycle argmax over candidate utilities
	// (UPrev/UCl/URl, Winner, and the adopted XPrev).
	TypeDecision Type = "decision"
	// TypeNoAck is the no-feedback fallback: a cycle ended without any
	// usable interval, so the base rate was repeated (Sec. 3).
	TypeNoAck Type = "no_ack"
	// TypeEnqueue is a packet accepted into the bottleneck queue
	// (Seq, Bytes = packet size, Queue = occupancy after enqueue).
	TypeEnqueue Type = "enqueue"
	// TypeDrop is a packet dropped at the bottleneck; Reason is one of
	// "tail", "channel", "aqm".
	TypeDrop Type = "drop"
	// TypeQueue is a periodic bottleneck sample (Queue = occupancy in
	// bytes, Rate = instantaneous link capacity in bytes/sec).
	TypeQueue Type = "queue"
	// TypeAction is one RL monitor-interval decision (Action, the new
	// Rate, the per-MI Reward, and a min/mean/max feature summary).
	TypeAction Type = "action"
	// TypeFault is a fault-injection event at the bottleneck: window
	// boundaries (Reason "blackout_start"/"blackout_end",
	// "flap_start"/"flap_end", with Rate carrying the flap's capacity
	// factor) and per-packet mutations (Reason "reorder", "dup",
	// "spike", with Queue carrying the extra delay in nanoseconds).
	TypeFault Type = "fault"
	// TypeSpan is a causal-span boundary: Reason is SpanBegin or
	// SpanEnd and Name identifies the span ("cycle", "flow:<cca>",
	// "scenario:<name>", "experiment:<id>"). The spans package folds
	// these, together with the implicit stage structure, into Chrome
	// trace-event JSON for Perfetto.
	TypeSpan Type = "span"
	// TypeAnomaly marks a detected incident: Reason is one of
	// "panic", "rate_collapse", "no_ack_streak", "utility_regression"
	// or "lab_worst_case". The flight recorder dumps its ring when one
	// passes through, so the seconds leading up to the incident are
	// preserved even when full tracing is off.
	TypeAnomaly Type = "anomaly"
	// TypeProfile binds a flow to a utility profile for the rest of the
	// stream (Flow, Name = profile name, e.g. "bulk" or "low-latency").
	// Emitted once per flow at scenario setup; the time-series collector
	// and the analyzer key per-profile aggregates and SLO attainment on
	// it.
	TypeProfile Type = "profile"
)

// Types lists every event type the current schema defines. It is the
// one list: the stream validator accepts these types and the analyzer
// counts events by their index in it. The order is how often a run
// emits each type, most often first, so a linear search is short for
// nearly every event (enqueues alone are over 90% of a recorded lab
// stream).
var Types = [...]Type{
	TypeEnqueue, TypeDrop, TypeQueue, TypeStage, TypeDecision, TypeEarlyExit,
	TypeNoAck, TypeAction, TypeFault, TypeSpan, TypeAnomaly, TypeProfile,
}

// MaxFlowID is the largest flow ID a decoded stream may carry; link
// events carry -1. It sits far above any flow count the harness builds
// (its largest run, the datacenter fabric, has 66 flows) and bounds the
// per-flow state one foreign line can make a reader allocate.
const MaxFlowID = 1 << 16

// checkFlow rejects a flow ID outside [-1, MaxFlowID].
func checkFlow(flow int) error {
	if flow < -1 || flow > MaxFlowID {
		return fmt.Errorf("flow %d outside [-1, %d]", flow, MaxFlowID)
	}
	return nil
}

// Span boundary reasons carried by TypeSpan events.
const (
	SpanBegin = "begin"
	SpanEnd   = "end"
)

// Anomaly reasons carried by TypeAnomaly events.
const (
	AnomalyPanic       = "panic"
	AnomalyCollapse    = "rate_collapse"
	AnomalyNoAckStreak = "no_ack_streak"
	AnomalyRegression  = "utility_regression"
	// AnomalyLabWorst marks the replay of a lab-discovered worst case:
	// emitted at the end of the final evaluation so the flight recorder
	// dumps the full forensic ring for the scenario.
	AnomalyLabWorst = "lab_worst_case"
)

// Drop reasons carried by TypeDrop events.
const (
	ReasonTail    = "tail"
	ReasonChannel = "channel"
	ReasonAQM     = "aqm"
	// ReasonBlackout tags drops inflicted by an injected link outage;
	// ReasonBurst tags drops from the Gilbert-Elliott bursty-loss chain.
	ReasonBlackout = "blackout"
	ReasonBurst    = "burst"
	// ReasonCE tags *enqueue* events (not drops) whose packet was
	// ECN CE-marked by the AQM on admission — the basis of per-link
	// mark-rate series.
	ReasonCE = "ce"
)

// Fault-window reasons carried by TypeFault events.
const (
	FaultBlackoutStart = "blackout_start"
	FaultBlackoutEnd   = "blackout_end"
	FaultFlapStart     = "flap_start"
	FaultFlapEnd       = "flap_end"
	FaultReorder       = "reorder"
	FaultDup           = "dup"
	FaultSpike         = "spike"
)

// Event is one timestamped telemetry record. It is a flat union: every
// type fills T/Type/Flow plus the fields its documentation names;
// unused fields stay zero and are omitted from the JSONL encoding.
type Event struct {
	// T is virtual time in nanoseconds since simulation start.
	T int64 `json:"t"`
	// Type discriminates the payload.
	Type Type `json:"type"`
	// Flow is the emitting flow ID; -1 for link-level events.
	Flow int `json:"flow"`
	// Link labels link-level events (enqueue/drop/queue/fault) with the
	// emitting link's topology identity. Empty on the degenerate
	// single-bottleneck path, whose encoding predates topologies.
	Link string `json:"link,omitempty"`

	Stage  string `json:"stage,omitempty"`
	Reason string `json:"reason,omitempty"`
	Winner string `json:"winner,omitempty"`

	Seq   int64 `json:"seq,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	Queue int64 `json:"queue,omitempty"`

	// Rates are bytes/sec, matching the cc package convention.
	Rate  float64 `json:"rate,omitempty"`
	XPrev float64 `json:"x_prev,omitempty"`
	XCl   float64 `json:"x_cl,omitempty"`
	XRl   float64 `json:"x_rl,omitempty"`

	UPrev float64 `json:"u_prev,omitempty"`
	UCl   float64 `json:"u_cl,omitempty"`
	URl   float64 `json:"u_rl,omitempty"`

	Action float64 `json:"action,omitempty"`
	Reward float64 `json:"reward,omitempty"`
	FMin   float64 `json:"f_min,omitempty"`
	FMean  float64 `json:"f_mean,omitempty"`
	FMax   float64 `json:"f_max,omitempty"`

	// RTT is the emitter's smoothed RTT in nanoseconds at emit time
	// (decision / no_ack events).
	RTT int64 `json:"rtt,omitempty"`
	// Thr/Grad/Loss decompose the winning candidate's scored interval
	// on decision events: throughput in Mbit/s, differential latency
	// gradient, and differential loss rate — the three inputs of the
	// Eq. 1 utility, letting analyzers split the winner's utility into
	// its throughput, delay-penalty, and loss-penalty terms.
	Thr  float64 `json:"thr,omitempty"`
	Grad float64 `json:"grad,omitempty"`
	Loss float64 `json:"loss,omitempty"`

	// Name labels span events (TypeSpan) with the span identity.
	Name string `json:"name,omitempty"`
	// V is the event-schema version. Emitters leave it zero; Recorder
	// stamps SchemaVersion on the way out so persisted streams carry it.
	V int `json:"v,omitempty"`
}

// Chosen returns the rate (bytes/sec) and Eq. 1 utility of a decision's
// winning candidate, or zeros when Winner names none of x_prev, x_cl and
// x_rl.
func (e *Event) Chosen() (rate, utility float64) {
	switch e.Winner {
	case "x_prev":
		return e.XPrev, e.UPrev
	case "x_cl":
		return e.XCl, e.UCl
	case "x_rl":
		return e.XRl, e.URl
	}
	return 0, 0
}

// Time returns the event timestamp as a duration from simulation start.
func (e *Event) Time() time.Duration { return time.Duration(e.T) }

// AppendJSON appends the event's single-line JSON encoding (no trailing
// newline) to b and returns the extended slice. Zero-valued optional
// fields are omitted, mirroring the struct tags, so the output decodes
// back to an equal Event. Non-finite floats encode as null (JSON has no
// NaN/Inf), which decodes as zero.
func (e *Event) AppendJSON(b []byte) []byte { return e.appendJSON(b, e.V) }

// appendJSON is AppendJSON writing v as the schema version in place of
// e.V, so the Recorder stamps a version without copying the event.
func (e *Event) appendJSON(b []byte, v int) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, `,"type":"`...)
	b = append(b, e.Type...)
	b = append(b, `","flow":`...)
	b = strconv.AppendInt(b, int64(e.Flow), 10)
	b = appendStr(b, "link", e.Link)
	b = appendStr(b, "stage", e.Stage)
	b = appendStr(b, "reason", e.Reason)
	b = appendStr(b, "winner", e.Winner)
	b = appendInt(b, "seq", e.Seq)
	b = appendInt(b, "bytes", e.Bytes)
	b = appendInt(b, "queue", e.Queue)
	b = appendFloat(b, "rate", e.Rate)
	b = appendFloat(b, "x_prev", e.XPrev)
	b = appendFloat(b, "x_cl", e.XCl)
	b = appendFloat(b, "x_rl", e.XRl)
	b = appendFloat(b, "u_prev", e.UPrev)
	b = appendFloat(b, "u_cl", e.UCl)
	b = appendFloat(b, "u_rl", e.URl)
	b = appendFloat(b, "action", e.Action)
	b = appendFloat(b, "reward", e.Reward)
	b = appendFloat(b, "f_min", e.FMin)
	b = appendFloat(b, "f_mean", e.FMean)
	b = appendFloat(b, "f_max", e.FMax)
	b = appendInt(b, "rtt", e.RTT)
	b = appendFloat(b, "thr", e.Thr)
	b = appendFloat(b, "grad", e.Grad)
	b = appendFloat(b, "loss", e.Loss)
	b = appendStr(b, "name", e.Name)
	b = appendInt(b, "v", int64(v))
	return append(b, '}')
}

// appendStr appends a ,"key":"val" pair unless val is empty. The
// emitters only produce identifier-like strings (stage names, reasons,
// candidates), so characters needing JSON escaping are escaped via the
// slow path only when present.
func appendStr(b []byte, key, val string) []byte {
	if val == "" {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	if jsonSafe(val) {
		b = append(b, '"')
		b = append(b, val...)
		return append(b, '"')
	}
	q, _ := json.Marshal(val) // rare: non-identifier string
	return append(b, q...)
}

// jsonSafe reports whether s needs no escaping under encoding/json's
// default (HTML-escaping) encoder, which the slow path defers to.
func jsonSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= 0x80 {
			return false
		}
	}
	return true
}

func appendInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendInt(b, v, 10)
}

func appendFloat(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	// Mirror encoding/json's float rendering so hand-encoded lines are
	// byte-identical to the stdlib view of the struct (pinned by test).
	f := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		f = 'e'
	}
	b = strconv.AppendFloat(b, v, f, -1, 64)
	if f == 'e' {
		// clean up e-09 to e-9, as encoding/json does
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Decoder reads a JSONL event stream produced by Recorder.
type Decoder struct {
	sc   *bufio.Scanner
	line int
}

// NewDecoder wraps r. Lines up to 1 MiB are accepted.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	return &Decoder{sc: sc}
}

// Next returns the next event, or io.EOF when the stream is exhausted.
// Blank lines are skipped.
func (d *Decoder) Next() (Event, error) {
	for d.sc.Scan() {
		d.line++
		raw := d.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return Event{}, fmt.Errorf("telemetry: line %d: %w", d.line, err)
		}
		if err := checkFlow(e.Flow); err != nil {
			return Event{}, fmt.Errorf("telemetry: line %d: %w", d.line, err)
		}
		return e, nil
	}
	if err := d.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// ReadEach decodes every event in r and hands each to emit in stream
// order, stopping at the first decode error. It is how a recorded
// stream replays into any sink.
func ReadEach(r io.Reader, emit func(*Event)) error {
	d := NewDecoder(r)
	for {
		e, err := d.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		emit(&e)
	}
}

// ReadAll decodes every event in r.
func ReadAll(r io.Reader) ([]Event, error) {
	var out []Event
	err := ReadEach(r, func(e *Event) { out = append(out, *e) })
	return out, err
}
