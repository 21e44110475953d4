package analyze

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"libra/internal/telemetry"
)

// recoveryWindow bounds how long after an outage ends a flow has to
// regain half its pre-outage base rate before the rate-collapse anomaly
// fires.
const recoveryWindow = 10 * time.Second

// Detector is the streaming anomaly fold: post-outage rate collapse,
// no-ACK streaks and utility regression, and nothing else. It reads
// decision, no_ack and scenario span-end events, notes every event's
// time, and keeps O(flows) state, so a flight-dump trigger or a lab
// evaluation taps a stream with it instead of a full Analyzer. It takes
// no lock: like any Tracer it is fed from one goroutine at a time.
type Detector struct {
	onAnomaly func(flow int, t int64, reason string)
	flows     []*detFlow // by flow ID, the order detectors resolved together fire in
	lastT     int64      // latest event time, where Finalize resolves open watches
}

// detFlow is one flow's detector state and counters.
type detFlow struct {
	id int

	// preOutageRate snapshots the base rate when a no-ACK streak
	// begins; outage is set by an episode's first decay cycle and
	// cleared by the "recover" marker, which also arms the recovery
	// watch.
	noAckStreak   int64
	outage        bool
	lastXPrev     float64
	preOutageRate float64
	watching      bool
	watchDeadline int64
	recoveryMax   float64

	// Utility-regression EWMA over winner utilities.
	uEwma         float64
	ewmaInit      bool
	regressStreak int64

	// Episodes fired, and the detail the report's anomaly lines quote.
	collapses, regressions, noAckEpisodes   int64
	maxNoAckStreak, decays, regressedCycles int64
}

// NewDetector returns an empty detector. onAnomaly, when non-nil, fires
// on the feeding goroutine the moment a detector trips, with a
// telemetry Anomaly* reason (rate_collapse, no_ack_streak,
// utility_regression).
func NewDetector(onAnomaly func(flow int, t int64, reason string)) *Detector {
	if onAnomaly == nil {
		onAnomaly = func(int, int64, string) {}
	}
	return &Detector{onAnomaly: onAnomaly}
}

// Enabled implements telemetry.Tracer.
func (d *Detector) Enabled() bool { return true }

// Emit implements telemetry.Tracer; the pointee is only read.
func (d *Detector) Emit(e *telemetry.Event) {
	d.lastT = max(d.lastT, e.T)
	switch e.Type {
	case telemetry.TypeDecision:
		d.decision(e)
	case telemetry.TypeNoAck:
		d.noAck(e)
	case telemetry.TypeSpan:
		if isRunEnd(e) {
			d.endRun(e.T)
		}
	}
}

// isRunEnd reports whether e ends one harness run: its scenario span
// end, after which the next run reuses the flow IDs.
func isRunEnd(e *telemetry.Event) bool {
	return e.Flow == -1 && e.Reason == telemetry.SpanEnd && strings.HasPrefix(e.Name, "scenario:")
}

// Episodes returns how many anomaly episodes flow has flagged so far:
// rate collapses, utility regressions and no-ACK streak episodes.
func (d *Detector) Episodes(flow int) int64 {
	f := d.counts(flow)
	return f.collapses + f.regressions + f.noAckEpisodes
}

// counts returns flow's state, or a zero one for a flow never seen.
func (d *Detector) counts(flow int) *detFlow {
	if i, ok := slices.BinarySearchFunc(d.flows, flow, byID); ok {
		return d.flows[i]
	}
	return &detFlow{id: flow}
}

// flow returns (creating on first sight) the state for a flow id.
func (d *Detector) flow(id int) *detFlow {
	i, ok := slices.BinarySearchFunc(d.flows, id, byID)
	if !ok {
		d.flows = slices.Insert(d.flows, i, &detFlow{id: id})
	}
	return d.flows[i]
}

func byID(f *detFlow, id int) int { return cmp.Compare(f.id, id) }

// decision folds one end-of-cycle argmax event in.
func (d *Detector) decision(e *telemetry.Event) {
	f := d.flow(e.Flow)
	f.noAckStreak = 0

	// Utility-regression detector: a decided cycle whose winner
	// utility falls under a quarter of the (positive) running EWMA is
	// regressing; three consecutive regressing cycles flag one
	// regression episode.
	_, u := e.Chosen()
	if !f.ewmaInit {
		f.uEwma, f.ewmaInit = u, true
	} else {
		if f.uEwma > 0 && u < 0.25*f.uEwma {
			f.regressedCycles++
			f.regressStreak++
			if f.regressStreak == 3 {
				f.regressions++
				d.onAnomaly(f.id, e.T, telemetry.AnomalyRegression)
			}
		} else {
			f.regressStreak = 0
		}
		f.uEwma = 0.9*f.uEwma + 0.1*u
	}

	// Post-outage recovery watch.
	f.lastXPrev = e.XPrev
	if f.watching {
		if e.XPrev > f.recoveryMax {
			f.recoveryMax = e.XPrev
		}
		if e.T >= f.watchDeadline {
			d.closeWatch(f, e.T)
		}
	}
}

// noAck folds one no-feedback cycle (or the outage-recovery marker) in.
func (d *Detector) noAck(e *telemetry.Event) {
	f := d.flow(e.Flow)
	if e.Reason == "recover" {
		// Outage ended: re-arm the no-ACK trigger and watch whether the
		// base rate regains half its pre-outage level within the
		// recovery window.
		f.noAckStreak, f.outage = 0, false
		if f.preOutageRate > 0 {
			f.watching = true
			f.watchDeadline = e.T + int64(recoveryWindow)
			f.recoveryMax = e.XPrev
		}
		return
	}
	if f.noAckStreak == 0 {
		f.preOutageRate = f.lastXPrev
	}
	f.noAckStreak++
	f.maxNoAckStreak = max(f.maxNoAckStreak, f.noAckStreak)
	if e.Reason == "decay" {
		f.decays++
		if !f.outage {
			// The first decay cycle is where the core watchdog presumes
			// the link down. Fires once per outage; recover re-arms it.
			f.outage = true
			f.noAckEpisodes++
			d.onAnomaly(f.id, e.T, telemetry.AnomalyNoAckStreak)
		}
	}
}

// closeWatch resolves a pending post-outage recovery watch at time t.
func (d *Detector) closeWatch(f *detFlow, t int64) {
	if f.recoveryMax < 0.5*f.preOutageRate {
		f.collapses++
		d.onAnomaly(f.id, t, telemetry.AnomalyCollapse)
	}
	f.watching = false
}

// endRun closes one harness run at its scenario span end: open recovery
// watches resolve at t, and every flow's detector state starts afresh.
func (d *Detector) endRun(t int64) {
	for _, f := range d.flows {
		if f.watching {
			d.closeWatch(f, t)
		}
		f.noAckStreak, f.outage = 0, false
		f.lastXPrev, f.preOutageRate = 0, 0
		f.uEwma, f.ewmaInit, f.regressStreak = 0, false, 0
	}
}

// Finalize resolves state that only settles at end of stream: pending
// recovery watches resolve at the last event time with whatever the
// flow managed before the trace ended. Call once after the last event;
// live taps may skip it (pending watches simply have not fired yet).
func (d *Detector) Finalize() {
	for _, f := range d.flows {
		if f.watching {
			d.closeWatch(f, d.lastT)
		}
	}
}

// merge adds b's counters into d flow by flow (max streaks take the
// max); b's open detector state does not carry over.
func (d *Detector) merge(b *Detector) {
	d.lastT = max(d.lastT, b.lastT)
	for _, bf := range b.flows {
		af := d.flow(bf.id)
		af.collapses += bf.collapses
		af.regressions += bf.regressions
		af.noAckEpisodes += bf.noAckEpisodes
		af.maxNoAckStreak = max(af.maxNoAckStreak, bf.maxNoAckStreak)
		af.decays += bf.decays
		af.regressedCycles += bf.regressedCycles
	}
}
