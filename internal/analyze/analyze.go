// Package analyze is the streaming trace-analytics engine: it
// consumes telemetry event streams — JSONL files or a live Tracer tap
// — in a single pass with bounded memory, reconstructs per-flow
// control-cycle timelines, and turns the raw firehose into the
// answers the paper's evaluation asks for: winner histograms and
// early-exit rates (Fig. 17), per-cycle utility decomposition into
// the Eq. 1 terms, stage-duration attribution, streaming rate/RTT/
// queue percentiles, windowed Jain fairness across flows, and anomaly
// flags (post-blackout rate collapse, no-ACK streaks, utility
// regressions). A sweep's stream holds many runs whose flow IDs
// restart at 0; the detectors and the fairness windows are scoped to one
// run, which ends at the harness's scenario span.
//
// Memory discipline: nothing is retained per event. State is O(flows)
// sketches and counters, the open run's O(windows × flows) fairness
// accumulators and one Jain value per closed window — a few KB per flow
// for arbitrarily long traces — and the steady-state feed path performs
// no allocation (guarded by TestFeedBudget).
//
// Determinism: analyses merge (Merge) by pure count/bucket addition
// in caller-fixed order, so a multi-file analysis produces
// byte-identical reports at any worker count, matching the sweep
// engine's contract.
package analyze

import (
	"io"
	"math"
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
	// OnAnomaly, when set, fires the moment a detector trips: reasons
	// are the telemetry Anomaly* constants (rate_collapse,
	// no_ack_streak, utility_regression). It is invoked on the feeding
	// goroutine with the analyzer lock held, so implementations must
	// not call back into the analyzer; the CLIs wire it to the flight
	// recorder's TriggerDump.
	OnAnomaly func(flow int, t int64, reason string)
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

// recoveryWindow bounds how long after an outage ends a flow has to
// regain half its pre-outage base rate before the rate-collapse anomaly
// fires.
const recoveryWindow = 10 * time.Second

// Winner indices into the per-flow win counters (mirrors
// core.Candidate's string order).
const (
	winPrev = iota
	winCl
	winRl
	nWinners
)

// winnerNames is the canonical reporting order.
var winnerNames = [nWinners]string{"x_prev", "x_cl", "x_rl"}

func winnerIndex(s string) int {
	switch s {
	case "x_prev":
		return winPrev
	case "x_cl":
		return winCl
	case "x_rl":
		return winRl
	}
	return -1
}

// Stage indices for duration attribution (mirrors core.Stage strings).
const (
	stExplore = iota
	stEvalFirst
	stEvalSecond
	stExploit
	nStages
)

var stageNames = [nStages]string{"explore", "eval-1", "eval-2", "exploit"}

func stageIndex(s string) int {
	switch s {
	case "explore":
		return stExplore
	case "eval-1":
		return stEvalFirst
	case "eval-2":
		return stEvalSecond
	case "exploit":
		return stExploit
	}
	return -1
}

// flowState is the bounded per-flow accumulator.
type flowState struct {
	id   int
	name string
	// profile is the utility-profile label bound by a TypeProfile
	// event; rttSpecs indexes the RTT-based SLO specs that apply.
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
	cycles         int64 // decision + no_ack
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

	// Anomaly state. preOutageRate snapshots the base rate when a
	// no-ACK streak begins; outage is set by an episode's first decay
	// cycle and cleared by the "recover" marker, which also arms the
	// recovery watch.
	noAckStreak    int64
	maxNoAckStreak int64
	noAckEpisodes  int64
	decays         int64
	outage         bool
	lastXPrev      float64
	preOutageRate  float64
	watching       bool
	watchDeadline  int64
	recoveryMax    float64
	collapses      int64

	// Utility-regression EWMA over winner utilities.
	uEwma           float64
	ewmaInit        bool
	regressStreak   int64
	regressedCycles int64
	regressions     int64
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
	events int64
	byType map[telemetry.Type]int64
	flows  map[int]*flowState
	link   linkState
	links  map[string]*linkState // per labelled link, multi-hop traces only
	// wins are the open run's fairness windows, by index; jains holds
	// the per-window Jain index of every run closed so far, in order,
	// and past those runs' windows pooled by index, which the throughput
	// SLOs read.
	wins  map[int64]*window
	jains []float64
	past  map[int64]*window
	slo   []map[int64]*sloWin // per RTT-based spec, by window index
	lastT int64
}

// New returns an empty analyzer.
func New(cfg Config) *Analyzer {
	a := &Analyzer{
		cfg:    cfg.withDefaults(),
		byType: make(map[telemetry.Type]int64, 16),
		flows:  make(map[int]*flowState, 8),
		link:   newLinkState(),
		links:  make(map[string]*linkState, 4),
		wins:   make(map[int64]*window, 64),
		past:   make(map[int64]*window),
	}
	a.slo = make([]map[int64]*sloWin, len(a.cfg.SLOs))
	for i := range a.slo {
		a.slo[i] = make(map[int64]*sloWin, 16)
	}
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

// RegisterFlow labels a flow id (e.g. with its controller name) for
// reports and the live dashboard; safe before or after the flow's
// first event.
func (a *Analyzer) RegisterFlow(id int, name string) {
	a.mu.Lock()
	a.flow(id).name = name
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
	a.byType[e.Type]++
	if e.T > a.lastT {
		a.lastT = e.T
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
	case telemetry.TypeDecision:
		a.feedDecision(e)
	case telemetry.TypeNoAck:
		a.feedNoAck(e)
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
		a.link.drops[e.Reason]++
		a.link.dropBytes += e.Bytes
		if e.Link != "" {
			ls := a.linkFor(e.Link)
			ls.drops[e.Reason]++
			ls.dropBytes += e.Bytes
		}
		if e.Flow >= 0 {
			fs := a.flow(e.Flow)
			fs.events++
			fs.drops++
		}
	case telemetry.TypeQueue:
		a.link.queueBytes.Add(float64(e.Queue))
		if e.Rate > 0 {
			a.link.capMbps.Add(e.Rate * 8 / 1e6)
		}
		if e.Link != "" {
			ls := a.linkFor(e.Link)
			ls.queueBytes.Add(float64(e.Queue))
			if e.Rate > 0 {
				ls.capMbps.Add(e.Rate * 8 / 1e6)
			}
		}
	case telemetry.TypeFault:
		feedFault(&a.link, e.Reason)
		if e.Link != "" {
			feedFault(a.linkFor(e.Link), e.Reason)
		}
	case telemetry.TypeAction:
		fs := a.flow(e.Flow)
		fs.events++
	case telemetry.TypeProfile:
		a.bindProfile(a.flow(e.Flow), e.Name)
	case telemetry.TypeSpan:
		if e.Flow == -1 && e.Reason == telemetry.SpanEnd && strings.HasPrefix(e.Name, "scenario:") {
			a.endRun(e.T)
		}
	}
}

// endRun closes one harness run at its scenario span end: open
// recovery watches resolve at t, the run's fairness windows fold into
// per-window Jain values over its own senders, and every flow's
// detector state starts afresh, since the next run reuses the flow IDs
// and window indices. Callers hold a.mu.
func (a *Analyzer) endRun(t int64) {
	a.jains = appendJains(a.jains, a.wins)
	addWindows(a.past, a.wins)
	clear(a.wins)
	for _, fs := range a.sortedFlows() {
		if fs.watching {
			a.closeWatch(fs, t)
		}
		fs.noAckStreak, fs.outage = 0, false
		fs.lastXPrev, fs.preOutageRate = 0, 0
		fs.uEwma, fs.ewmaInit, fs.regressStreak = 0, false, 0
	}
}

// sortedFlows returns the flow states in flow-ID order, so detectors
// resolved together fire in a deterministic order. Callers hold a.mu.
func (a *Analyzer) sortedFlows() []*flowState {
	out := make([]*flowState, 0, len(a.flows))
	for _, fs := range a.flows {
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// feedFault classifies one fault event into a link state's counters.
func feedFault(ls *linkState, reason string) {
	switch reason {
	case telemetry.FaultBlackoutStart:
		ls.faultWin++
		ls.blackouts++
	case telemetry.FaultBlackoutEnd, telemetry.FaultFlapStart, telemetry.FaultFlapEnd:
		ls.faultWin++
	default: // reorder / dup / spike — per-packet mutations
		ls.faultPkt++
	}
}

// feedDecision folds one end-of-cycle argmax event in.
func (a *Analyzer) feedDecision(e *telemetry.Event) {
	fs := a.flow(e.Flow)
	fs.events++
	fs.cycles++
	fs.decided++
	fs.noAckStreak = 0

	wi := winnerIndex(e.Winner)
	if wi >= 0 {
		fs.wins[wi]++
	}

	// Cycle length: decision closes the cycle; the next one starts at
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

	// Winner utility and its Eq. 1 decomposition. The traced triple is
	// present (thr>0) for every winner scored on a real interval.
	var u float64
	switch wi {
	case winPrev:
		u = e.UPrev
	case winCl:
		u = e.UCl
	case winRl:
		u = e.URl
	}
	if e.Thr > 0 {
		fs.decompCycles++
		fs.uSum += u
		fs.thrSum += a.cfg.Util.Alpha * math.Pow(e.Thr, a.cfg.Util.T)
		fs.delaySum += a.cfg.Util.Beta * e.Thr * math.Max(0, e.Grad)
		fs.lossSum += a.cfg.Util.Gamma * e.Thr * math.Max(0, e.Loss)
	}

	// Utility-regression detector: a decided cycle whose winner
	// utility falls under a quarter of the (positive) running EWMA is
	// regressing; three consecutive regressing cycles flag one
	// regression episode.
	if !fs.ewmaInit {
		fs.uEwma, fs.ewmaInit = u, true
	} else {
		if fs.uEwma > 0 && u < 0.25*fs.uEwma {
			fs.regressedCycles++
			fs.regressStreak++
			if fs.regressStreak == 3 {
				fs.regressions++
				a.fireAnomaly(fs.id, e.T, telemetry.AnomalyRegression)
			}
		} else {
			fs.regressStreak = 0
		}
		fs.uEwma = 0.9*fs.uEwma + 0.1*u
	}

	// Post-outage recovery watch.
	fs.lastXPrev = e.XPrev
	if fs.watching {
		if e.XPrev > fs.recoveryMax {
			fs.recoveryMax = e.XPrev
		}
		if e.T >= fs.watchDeadline {
			a.closeWatch(fs, e.T)
		}
	}
}

// feedNoAck folds one no-feedback cycle (or the outage-recovery
// marker) in.
func (a *Analyzer) feedNoAck(e *telemetry.Event) {
	fs := a.flow(e.Flow)
	fs.events++
	if e.Reason == "recover" {
		// Outage ended: re-arm the no-ACK trigger and watch whether the
		// base rate regains half its pre-outage level within the
		// recovery window.
		fs.noAckStreak, fs.outage = 0, false
		if fs.preOutageRate > 0 {
			fs.watching = true
			fs.watchDeadline = e.T + int64(recoveryWindow)
			fs.recoveryMax = e.XPrev
		}
		return
	}
	fs.cycles++
	fs.skipped++
	if fs.noAckStreak == 0 {
		fs.preOutageRate = fs.lastXPrev
	}
	fs.noAckStreak++
	if fs.noAckStreak > fs.maxNoAckStreak {
		fs.maxNoAckStreak = fs.noAckStreak
	}
	if e.Reason == "decay" {
		fs.decays++
		if !fs.outage {
			// The first decay cycle is where the core watchdog presumes
			// the link down. Fires once per outage; recover re-arms it.
			fs.outage = true
			fs.noAckEpisodes++
			a.fireAnomaly(fs.id, e.T, telemetry.AnomalyNoAckStreak)
		}
	}
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

// closeWatch resolves a pending post-outage recovery watch. Callers
// hold a.mu; t is the trace time the watch resolved at.
func (a *Analyzer) closeWatch(fs *flowState, t int64) {
	if fs.recoveryMax < 0.5*fs.preOutageRate {
		fs.collapses++
		a.fireAnomaly(fs.id, t, telemetry.AnomalyCollapse)
	}
	fs.watching = false
}

// fireAnomaly invokes the configured anomaly callback, if any.
// Callers hold a.mu.
func (a *Analyzer) fireAnomaly(flow int, t int64, reason string) {
	if a.cfg.OnAnomaly != nil {
		a.cfg.OnAnomaly(flow, t, reason)
	}
}

// Finalize resolves state that only settles at end of stream: pending
// post-outage recovery watches are evaluated with whatever the flow
// managed before the trace ended. Call once after the last event and
// before Merge/Report; live taps may skip it (pending watches simply
// have not fired yet).
func (a *Analyzer) Finalize() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, fs := range a.sortedFlows() {
		if fs.watching {
			a.closeWatch(fs, a.lastT)
		}
	}
}

// Merge folds b into a (b is left untouched but must not be feeding
// concurrently). Counts and sums add, sketches merge bucket-wise, max
// streaks take the max. Closed runs' fairness values append after a's;
// the open run's windows union by window index, so flow-disjoint shards
// of one run merge exactly. Order-sensitive detector state (EWMAs, open
// stages, pending watches) does not carry across shards — Finalize each
// shard first. Merging in a fixed shard order yields byte-identical
// reports at any worker count.
func (a *Analyzer) Merge(b *Analyzer) {
	if b == nil || b == a {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()

	a.events += b.events
	for t, n := range b.byType {
		a.byType[t] += n
	}
	if b.lastT > a.lastT {
		a.lastT = b.lastT
	}
	for id, bf := range b.flows {
		af := a.flow(id)
		if af.name == "" {
			af.name = bf.name
		}
		if af.profile == "" {
			a.bindProfile(af, bf.profile)
		}
		if !af.haveFirstLink {
			af.firstLink, af.haveFirstLink = bf.firstLink, bf.haveFirstLink
		}
		af.events += bf.events
		for i := range af.stageNs {
			af.stageNs[i] += bf.stageNs[i]
		}
		af.cycles += bf.cycles
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
		if bf.maxNoAckStreak > af.maxNoAckStreak {
			af.maxNoAckStreak = bf.maxNoAckStreak
		}
		af.noAckEpisodes += bf.noAckEpisodes
		af.decays += bf.decays
		af.collapses += bf.collapses
		af.regressions += bf.regressions
		af.regressedCycles += bf.regressedCycles
	}
	a.link.queueBytes.Merge(b.link.queueBytes)
	a.link.capMbps.Merge(b.link.capMbps)
	for r, n := range b.link.drops {
		a.link.drops[r] += n
	}
	a.link.dropBytes += b.link.dropBytes
	a.link.faultWin += b.link.faultWin
	a.link.faultPkt += b.link.faultPkt
	a.link.blackouts += b.link.blackouts
	for label, bl := range b.links {
		al := a.linkFor(label)
		al.queueBytes.Merge(bl.queueBytes)
		al.capMbps.Merge(bl.capMbps)
		for r, n := range bl.drops {
			al.drops[r] += n
		}
		al.dropBytes += bl.dropBytes
		al.faultWin += bl.faultWin
		al.faultPkt += bl.faultPkt
		al.blackouts += bl.blackouts
	}
	a.jains = append(a.jains, b.jains...)
	addWindows(a.wins, b.wins)
	addWindows(a.past, b.past)
	for si := range b.slo {
		if si >= len(a.slo) {
			break // differing configs; keep a's spec view
		}
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
}

// ReadStream decodes a JSONL event stream and feeds every event into
// a fresh analyzer (not finalized — callers analyzing a complete file
// should call Finalize).
func ReadStream(r io.Reader, cfg Config) (*Analyzer, error) {
	a := New(cfg)
	return a, telemetry.ReadEach(r, a.Emit)
}
