package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one recorded interval of the benchmark's own code around a
// call into the program: workload, set-up, check, pass, sweep or
// tournament, job, and per-sink Emit totals. A sink span folds every
// Emit of one sink in one pass into a count and a total. Times are
// nanoseconds since the run started; SelfNs is the span minus the part
// of it its children cover.
type Span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	SelfNs  int64              `json:"self_ns"`
	Count   int64              `json:"count,omitempty"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	t0    time.Time
	spans []Span
}

func newSpans() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return time.Since(l.t0).Nanoseconds() }

// begin opens a span under parent (-1 for a root) and returns its id.
func (l *spanLog) begin(parent int, name string) int {
	id := len(l.spans)
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Name: name, StartNs: l.now()})
	return id
}

func (l *spanLog) end(id int) { l.spans[id].EndNs = l.now() }

// add records a finished span under parent and returns its id.
func (l *spanLog) add(parent int, name string, startNs, endNs, count int64, attrs map[string]float64) int {
	id := len(l.spans)
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Name: name,
		StartNs: startNs, EndNs: endNs, Count: count, Attrs: attrs})
	return id
}

// addPass records a finished pass's sweep (or tournament), job and
// sink spans under its pass span; the pass reports times relative to
// its own start.
func (l *spanLog) addPass(pass int, p *PassResult) {
	t0 := l.spans[pass].StartNs
	if p.Jobs == nil {
		tid := l.add(pass, "tournament", t0, t0+p.TournamentNs, 0, map[string]float64{
			"evals": float64(p.Attempted), "sim_ns": float64(p.SimNs), "events": float64(p.Events)})
		// The sinks take turns on every event, so their totals are laid
		// end to end: together they cover as much of the tournament as
		// all their Emit calls took.
		at := t0
		for _, s := range p.Sinks {
			l.add(tid, "emit:"+s.Name, at, at+s.Ns, s.Events, nil)
			at += s.Ns
		}
		return
	}
	sid := l.add(pass, "sweep", t0+p.Jobs[0].StartNs, t0, 0, map[string]float64{
		"sim_ns": float64(p.SimNs), "events": float64(p.Events)})
	for i, j := range p.Jobs {
		var ctrl, acked float64
		for _, f := range j.Flows {
			ctrl += float64(f.ComputeNs)
			acked += float64(f.Acked)
		}
		l.add(sid, fmt.Sprintf("job:%d", i), t0+j.StartNs, t0+j.EndNs, 0, map[string]float64{
			"flows": float64(len(j.Flows)), "controller_ns": ctrl, "acks": acked / float64(mss)})
		s := &l.spans[sid]
		s.StartNs = min(s.StartNs, t0+j.StartNs)
		s.EndNs = max(s.EndNs, t0+j.EndNs)
	}
}

// selfTimes sets every span's SelfNs: its duration minus the union of
// its children's intervals.
func (l *spanLog) selfTimes() {
	kids := make(map[int][]Span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].StartNs < ks[b].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range ks {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// write stores the spans as JSON at path.
func (l *spanLog) write(path string) error {
	l.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
