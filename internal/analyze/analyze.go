// Package analyze is the streaming trace-analytics engine: it
// consumes telemetry event streams — JSONL files or a live Tracer tap
// — in a single pass with bounded memory, reconstructs per-flow
// control-cycle timelines, and turns the raw firehose into the
// answers the paper's evaluation asks for: winner histograms and
// early-exit rates (Fig. 17), per-cycle utility decomposition into
// the Eq. 1 terms, stage-duration attribution, streaming rate/RTT/
// queue percentiles, windowed Jain fairness across flows, per-profile
// SLOs and throughput, and anomaly flags (post-blackout rate collapse,
// no-ACK streaks, utility regressions).
//
// The stream is the only source. A flow is named by its flow:<cca>
// span. A sweep's stream holds many runs whose flow IDs restart at 0,
// each ended by a scenario span, and an ID takes its latest run's name
// and profile. The detectors, Jain windows, SLO windows and profile
// throughput are per run, summed or averaged over runs in the report;
// FlowReport's counters and sketches pool a flow ID over all runs.
//
// The detectors are one fold, Detector, which taps needing only them
// (flight-dump triggers, lab evaluations) use alone; the Analyzer feeds
// one and reports its counters.
//
// Memory discipline: nothing is retained per event. State is O(flows)
// sketches and counters, the open run's O(windows × flows) window
// accumulators, one Jain value per closed window and per-spec and
// per-profile tallies — a few KB per flow for arbitrarily long traces —
// and the steady-state feed path performs no allocation (guarded by
// TestFeedBudget).
//
// Determinism: analyses merge (Merge) by pure count/bucket addition
// in caller-fixed order, so a multi-file analysis produces
// byte-identical reports at any worker count, matching the sweep
// engine's contract.
package analyze

import (
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"libra/internal/stats"
	"libra/internal/telemetry"
	"libra/internal/utility"
)

// Config parameterises an Analyzer.
type Config struct {
	// Window is the Jain-fairness window width (default 1s).
	Window time.Duration
	// Util holds the Eq. 1 constants used to decompose the winner's
	// utility into throughput / delay-penalty / loss-penalty terms
	// (default utility.Default(); must match the run's utility for the
	// decomposition to reconstruct the traced u_* values).
	Util utility.Libra
	// SLOs are the per-profile objectives evaluated per fairness
	// window. Nil selects DefaultSLOs(); an empty non-nil slice
	// disables SLO tracking. Shards being merged must share the same
	// spec list (like Window).
	SLOs []SLOSpec
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.Util == (utility.Libra{}) {
		c.Util = utility.Default()
	}
	if c.SLOs == nil {
		c.SLOs = DefaultSLOs()
	}
	return c
}

// Winner indices into the per-flow win counters, in the canonical
// reporting order (mirrors core.Candidate's string order).
const (
	winPrev = iota
	winCl
	winRl
	nWinners
)

var winnerNames = [nWinners]string{"x_prev", "x_cl", "x_rl"}

// winnerIndex maps a winner name to its index; -1 when unknown.
func winnerIndex(s string) int { return slices.Index(winnerNames[:], s) }

// Stage indices for duration attribution (mirrors core.Stage strings);
// an explore stage opens a control cycle.
const (
	stExplore = iota
	nStages   = 4
)

var stageNames = [nStages]string{"explore", "eval-1", "eval-2", "exploit"}

// stageIndex maps a stage name to its index; -1 when unknown.
func stageIndex(s string) int { return slices.Index(stageNames[:], s) }

// flowState is the bounded per-flow accumulator.
type flowState struct {
	id int
	// name is the controller of the flow's latest flow:<cca> span.
	name string
	// profile is the utility-profile label the latest TypeProfile event
	// bound; rttSpecs indexes the RTT-based SLO specs that apply.
	profile  string
	rttSpecs []int
	// firstLink pins the flow's ingress hop: multi-hop streams
	// re-enqueue the same packet at every hop, so send accounting and
	// fairness windows count only events on the first link the flow was
	// seen on (every hop for single-bottleneck traces, whose label is
	// empty everywhere).
	firstLink     string
	haveFirstLink bool

	events int64

	// Stage-duration attribution: each stage event closes the previous
	// stage. A final partial stage stays unattributed.
	lastStage  int // -1 before the first stage event
	lastStageT int64
	stageNs    [nStages]int64

	// Control-cycle reconstruction.
	cycleStartT    int64
	haveCycleStart bool
	decided        int64
	skipped        int64
	earlyExits     int64
	wins           [nWinners]int64

	// Winner-utility decomposition (Eq. 1 terms), per decided cycle
	// that carried the thr/grad/loss triple.
	decompCycles                    int64
	uSum, thrSum, delaySum, lossSum float64

	// Streaming percentile sketches.
	rateMbps   *stats.Sketch // applied rate at each stage entry
	rttMs      *stats.Sketch // smoothed RTT at each cycle decision
	cycleMs    *stats.Sketch // control-cycle length
	queueBytes *stats.Sketch // occupancy after each of this flow's enqueues

	sentBytes int64
	drops     int64
}

// linkState aggregates the link-level (flow -1) events. The analyzer
// keeps one aggregate instance fed by every link event (the
// single-bottleneck view) plus one per labelled link in a multi-hop
// trace, so drops and queueing attribute to the hop that caused them.
type linkState struct {
	queueBytes *stats.Sketch
	capMbps    *stats.Sketch
	drops      map[string]int64
	dropBytes  int64
	faultWin   int64
	faultPkt   int64
	blackouts  int64
}

func newLinkState() linkState {
	return linkState{
		queueBytes: stats.NewSketch(0),
		capMbps:    stats.NewSketch(0),
		drops:      make(map[string]int64, 8),
	}
}

// feed folds one link-level event (drop, queue sample or fault) in.
func (ls *linkState) feed(e *telemetry.Event) {
	switch e.Type {
	case telemetry.TypeDrop:
		ls.drops[e.Reason]++
		ls.dropBytes += e.Bytes
	case telemetry.TypeQueue:
		ls.queueBytes.Add(float64(e.Queue))
		if e.Rate > 0 {
			ls.capMbps.Add(e.Rate * 8 / 1e6)
		}
	case telemetry.TypeFault:
		switch e.Reason {
		case telemetry.FaultBlackoutStart:
			ls.faultWin++
			ls.blackouts++
		case telemetry.FaultBlackoutEnd, telemetry.FaultFlapStart, telemetry.FaultFlapEnd:
			ls.faultWin++
		default: // reorder / dup / spike — per-packet mutations
			ls.faultPkt++
		}
	}
}

// merge adds o's sketches and counters into ls.
func (ls *linkState) merge(o *linkState) {
	ls.queueBytes.Merge(o.queueBytes)
	ls.capMbps.Merge(o.capMbps)
	for r, n := range o.drops {
		ls.drops[r] += n
	}
	ls.dropBytes += o.dropBytes
	ls.faultWin += o.faultWin
	ls.faultPkt += o.faultPkt
	ls.blackouts += o.blackouts
}

// window accumulates per-flow bytes enqueued inside one fairness
// window.
type window struct {
	bytes map[int]int64
}

// addWindows adds src's per-flow bytes into dst by window index; src is
// left untouched.
func addWindows(dst, src map[int64]*window) {
	for idx, sw := range src {
		dw, ok := dst[idx]
		if !ok {
			dw = &window{bytes: make(map[int]int64, len(sw.bytes))}
			dst[idx] = dw
		}
		for f, n := range sw.bytes {
			dw.bytes[f] += n
		}
	}
}

// appendJains appends the Jain index of every window in wins, in window
// order, over the flows that sent in any of them (a flow silent in one
// window counts as zero there). Windows nobody sent in are skipped, and
// so is a run in which fewer than two flows sent: one flow has nothing
// to share with, and its windows would read a perfect 1.
func appendJains(dst []float64, wins map[int64]*window) []float64 {
	sent := make(map[int]int64, 4)
	idxs := make([]int64, 0, len(wins))
	for idx, w := range wins {
		idxs = append(idxs, idx)
		for id, n := range w.bytes {
			sent[id] += n
		}
	}
	senders := make([]int, 0, len(sent))
	for id, n := range sent {
		if n > 0 {
			senders = append(senders, id)
		}
	}
	if len(senders) < 2 {
		return dst
	}
	sort.Ints(senders)
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	alloc := make([]float64, len(senders))
	for _, idx := range idxs {
		w := wins[idx]
		var total int64
		for i, id := range senders {
			alloc[i] = float64(w.bytes[id])
			total += w.bytes[id]
		}
		if total > 0 {
			dst = append(dst, stats.JainIndex(alloc))
		}
	}
	return dst
}

// Analyzer is the engine. It implements telemetry.Tracer so it can
// tap a live event stream; Emit is mutex-guarded because the live
// dashboard reads snapshots concurrently with the (single-threaded)
// emitting simulation.
type Analyzer struct {
	mu     sync.Mutex
	cfg    Config
	det    *Detector // the anomaly detectors and the latest event time
	events int64
	// byType counts the schema's event types by their index in
	// telemetry.Types; others counts the types outside it, which a
	// lax-decoded foreign stream can carry.
	byType [len(telemetry.Types)]int64
	others map[telemetry.Type]int64
	flows  map[int]*flowState
	link   linkState
	links  map[string]*linkState // per labelled link, multi-hop traces only
	// The open run: its fairness windows and each RTT-based SLO spec's
	// windows by index, the profile each flow was bound to in it, and
	// its latest event time. closed holds what the runs before it left.
	wins    map[int64]*window
	slo     []map[int64]*sloWin
	runProf map[int]string
	runT    int64
	closed  tallies
}

// New returns an empty analyzer.
func New(cfg Config) *Analyzer {
	a := &Analyzer{
		cfg:     cfg.withDefaults(),
		det:     NewDetector(nil),
		others:  make(map[telemetry.Type]int64),
		flows:   make(map[int]*flowState, 8),
		link:    newLinkState(),
		links:   make(map[string]*linkState, 4),
		wins:    make(map[int64]*window, 64),
		runProf: make(map[int]string, 4),
	}
	a.slo = make([]map[int64]*sloWin, len(a.cfg.SLOs))
	for i := range a.slo {
		a.slo[i] = make(map[int64]*sloWin, 16)
	}
	a.closed = newTallies(a.cfg.SLOs)
	return a
}

// Enabled implements telemetry.Tracer.
func (a *Analyzer) Enabled() bool { return true }

// Emit implements telemetry.Tracer: folds one event into the
// analysis. The pointee is only read during the call.
func (a *Analyzer) Emit(e *telemetry.Event) {
	a.mu.Lock()
	a.feed(e)
	a.mu.Unlock()
}

// flow returns (creating on first sight) the state for a flow id.
// Callers hold a.mu.
func (a *Analyzer) flow(id int) *flowState {
	fs, ok := a.flows[id]
	if !ok {
		fs = &flowState{
			id:         id,
			lastStage:  -1,
			rateMbps:   stats.NewSketch(0),
			rttMs:      stats.NewSketch(0),
			cycleMs:    stats.NewSketch(0),
			queueBytes: stats.NewSketch(0),
		}
		a.flows[id] = fs
	}
	return fs
}

// linkFor returns (creating on first sight) the per-label link state.
// Callers hold a.mu; label must be non-empty.
func (a *Analyzer) linkFor(label string) *linkState {
	ls, ok := a.links[label]
	if !ok {
		ls = &linkState{}
		*ls = newLinkState()
		a.links[label] = ls
	}
	return ls
}

// feed is the single-pass state update. Callers hold a.mu.
func (a *Analyzer) feed(e *telemetry.Event) {
	a.events++
	a.det.Emit(e)
	a.runT = max(a.runT, e.T)
	if i := slices.Index(telemetry.Types[:], e.Type); i >= 0 {
		a.byType[i]++
	} else {
		a.others[e.Type]++
	}
	switch e.Type {
	case telemetry.TypeStage:
		fs := a.flow(e.Flow)
		fs.events++
		if si := stageIndex(e.Stage); si >= 0 {
			if fs.lastStage >= 0 && e.T >= fs.lastStageT {
				fs.stageNs[fs.lastStage] += e.T - fs.lastStageT
			}
			fs.lastStage = si
			fs.lastStageT = e.T
			if si == stExplore && !fs.haveCycleStart {
				fs.cycleStartT = e.T
				fs.haveCycleStart = true
			}
		}
		if e.Rate > 0 {
			fs.rateMbps.Add(e.Rate * 8 / 1e6)
		}
	case telemetry.TypeEarlyExit:
		fs := a.flow(e.Flow)
		fs.events++
		fs.earlyExits++
	case telemetry.TypeDecision, telemetry.TypeNoAck:
		a.feedCycle(e)
	case telemetry.TypeEnqueue:
		fs := a.flow(e.Flow)
		fs.events++
		fs.queueBytes.Add(float64(e.Queue))
		if !fs.haveFirstLink {
			fs.firstLink, fs.haveFirstLink = e.Link, true
		}
		if e.Link != fs.firstLink {
			break // downstream hop of a packet already counted
		}
		fs.sentBytes += e.Bytes
		idx := e.T / int64(a.cfg.Window)
		w, ok := a.wins[idx]
		if !ok {
			w = &window{bytes: make(map[int]int64, 4)}
			a.wins[idx] = w
		}
		w.bytes[e.Flow] += e.Bytes
	case telemetry.TypeDrop:
		a.feedLink(e)
		if e.Flow >= 0 {
			fs := a.flow(e.Flow)
			fs.events++
			fs.drops++
		}
	case telemetry.TypeQueue, telemetry.TypeFault:
		a.feedLink(e)
	case telemetry.TypeAction:
		fs := a.flow(e.Flow)
		fs.events++
	case telemetry.TypeProfile:
		a.bindProfile(a.flow(e.Flow), e.Name)
		if e.Name != "" {
			a.runProf[e.Flow] = e.Name
		}
	case telemetry.TypeSpan:
		if name, ok := strings.CutPrefix(e.Name, "flow:"); ok && e.Flow >= 0 && e.Reason == telemetry.SpanBegin {
			a.flow(e.Flow).name = name
		} else if isRunEnd(e) {
			// The next run reuses the flow IDs and window indices.
			a.closeRun(&a.closed)
			clear(a.wins)
			for _, w := range a.slo {
				clear(w)
			}
			clear(a.runProf)
			a.runT = 0
		}
	}
}

// feedLink folds a drop, queue or fault event into the path-wide link
// state and, for a labelled hop, into that hop's state. Callers hold
// a.mu.
func (a *Analyzer) feedLink(e *telemetry.Event) {
	a.link.feed(e)
	if e.Link != "" {
		a.linkFor(e.Link).feed(e)
	}
}

// feedCycle folds one control-cycle end in: a decision, a no-feedback
// cycle, or the outage-recovery marker, which ends no cycle.
func (a *Analyzer) feedCycle(e *telemetry.Event) {
	fs := a.flow(e.Flow)
	fs.events++
	if e.Type == telemetry.TypeNoAck {
		if e.Reason == "recover" {
			return
		}
		fs.skipped++
	} else {
		fs.decided++
		if wi := winnerIndex(e.Winner); wi >= 0 {
			fs.wins[wi]++
		}
		// The winner utility's Eq. 1 decomposition. The traced triple is
		// present (thr>0) for every winner scored on a real interval.
		if e.Thr > 0 {
			_, u := e.Chosen()
			fs.decompCycles++
			fs.uSum += u
			fs.thrSum += a.cfg.Util.Alpha * math.Pow(e.Thr, a.cfg.Util.T)
			fs.delaySum += a.cfg.Util.Beta * e.Thr * math.Max(0, e.Grad)
			fs.lossSum += a.cfg.Util.Gamma * e.Thr * math.Max(0, e.Loss)
		}
	}

	// Cycle length: the event closes the cycle; the next one starts at
	// the same instant (startCycle emits its explore stage event at the
	// decision timestamp).
	if fs.haveCycleStart && e.T >= fs.cycleStartT {
		fs.cycleMs.Add(float64(e.T-fs.cycleStartT) / 1e6)
	}
	fs.cycleStartT = e.T
	fs.haveCycleStart = true
	if e.RTT > 0 {
		fs.rttMs.Add(float64(e.RTT) / 1e6)
		a.feedSLORtt(fs, e.T, float64(e.RTT)/1e6)
	}
}

// Finalize resolves the detectors' end-of-stream state (see
// Detector.Finalize). Call once after the last event and before
// Merge/Report; live taps may skip it (pending watches simply have not
// fired yet).
func (a *Analyzer) Finalize() {
	a.mu.Lock()
	a.det.Finalize()
	a.mu.Unlock()
}

// Merge folds b into a (b is left untouched but must not be feeding
// concurrently). Counts and sums add, sketches merge bucket-wise, max
// streaks take the max, and b's flow names and profiles replace a's,
// since b is the later shard. Closed runs' Jain values append after
// a's and their SLO and throughput tallies add; the open run's windows
// union by window index, so flow-disjoint shards of one run merge
// exactly. Order-sensitive detector state (EWMAs, open stages, pending
// watches) does not carry across shards — Finalize each shard first.
// Merging in a fixed shard order yields byte-identical reports at any
// worker count.
func (a *Analyzer) Merge(b *Analyzer) {
	if b == nil || b == a {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()

	a.events += b.events
	for i, n := range b.byType {
		a.byType[i] += n
	}
	for t, n := range b.others {
		a.others[t] += n
	}
	a.det.merge(b.det)
	for id, bf := range b.flows {
		af := a.flow(id)
		if bf.name != "" {
			af.name = bf.name
		}
		a.bindProfile(af, bf.profile)
		if !af.haveFirstLink {
			af.firstLink, af.haveFirstLink = bf.firstLink, bf.haveFirstLink
		}
		af.events += bf.events
		for i := range af.stageNs {
			af.stageNs[i] += bf.stageNs[i]
		}
		af.decided += bf.decided
		af.skipped += bf.skipped
		af.earlyExits += bf.earlyExits
		for i := range af.wins {
			af.wins[i] += bf.wins[i]
		}
		af.decompCycles += bf.decompCycles
		af.uSum += bf.uSum
		af.thrSum += bf.thrSum
		af.delaySum += bf.delaySum
		af.lossSum += bf.lossSum
		af.rateMbps.Merge(bf.rateMbps)
		af.rttMs.Merge(bf.rttMs)
		af.cycleMs.Merge(bf.cycleMs)
		af.queueBytes.Merge(bf.queueBytes)
		af.sentBytes += bf.sentBytes
		af.drops += bf.drops
	}
	a.link.merge(&b.link)
	for label, bl := range b.links {
		a.linkFor(label).merge(bl)
	}
	a.closed.merge(&b.closed)
	addWindows(a.wins, b.wins)
	for si := range min(len(a.slo), len(b.slo)) {
		for idx, bw := range b.slo[si] {
			aw, ok := a.slo[si][idx]
			if !ok {
				aw = &sloWin{}
				a.slo[si][idx] = aw
			}
			aw.n += bw.n
			aw.over += bw.over
			aw.sum += bw.sum
		}
	}
	maps.Copy(a.runProf, b.runProf)
	a.runT = max(a.runT, b.runT)
}

// ReadStream decodes a JSONL event stream and feeds every event into
// a fresh analyzer (not finalized — callers analyzing a complete file
// should call Finalize).
func ReadStream(r io.Reader, cfg Config) (*Analyzer, error) {
	a := New(cfg)
	return a, telemetry.ReadEach(r, a.Emit)
}
