package analyze

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"libra/internal/telemetry"
	"libra/internal/utility"
)

// synthTrace emits a deterministic two-flow trace exercising every
// event type the analyzer folds in: full control cycles with stage
// transitions, decisions with the Eq. 1 triple, an early exit, a
// no-ACK outage with decay + recover, enqueues/drops/queue samples,
// and fault windows.
func synthTrace(sink telemetry.Tracer) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	emit := func(e telemetry.Event) { sink.Emit(&e) }
	util := utility.Default()
	u := func(thr, grad, loss float64) float64 { return util.Value(thr, grad, loss) }

	for cyc := int64(0); cyc < 20; cyc++ {
		for fl := 0; fl < 2; fl++ {
			base := ms(cyc*40) + int64(fl)*ms(1)
			rate := 1.25e6 * float64(fl+1) // bytes/s → 10/20 Mbit/s
			emit(telemetry.Event{T: base, Type: telemetry.TypeStage, Flow: fl, Stage: "explore", Rate: rate})
			emit(telemetry.Event{T: base + ms(10), Type: telemetry.TypeStage, Flow: fl, Stage: "eval-1", Rate: rate * 0.95})
			emit(telemetry.Event{T: base + ms(20), Type: telemetry.TypeStage, Flow: fl, Stage: "eval-2", Rate: rate * 1.05})
			if cyc == 7 && fl == 0 {
				emit(telemetry.Event{T: base + ms(25), Type: telemetry.TypeEarlyExit, Flow: fl, Reason: "th1"})
			}
			emit(telemetry.Event{T: base + ms(30), Type: telemetry.TypeStage, Flow: fl, Stage: "exploit", Rate: rate})
			thr := rate * 8 / 1e6
			winner := "x_prev"
			if cyc%3 == 0 {
				winner = "x_cl"
			} else if cyc%3 == 1 {
				winner = "x_rl"
			}
			emit(telemetry.Event{
				T: base + ms(40), Type: telemetry.TypeDecision, Flow: fl,
				Winner: winner, XPrev: rate, XCl: rate * 0.9, XRl: rate * 1.1,
				UPrev: u(thr, 0, 0), UCl: u(thr, 0, 0), URl: u(thr, 0, 0),
				RTT: ms(20 + cyc%5), Thr: thr, Grad: 0.001, Loss: 0.01,
			})
			emit(telemetry.Event{T: base + ms(5), Type: telemetry.TypeEnqueue, Flow: fl, Bytes: 1500 * (cyc + 1) * int64(fl+1)})
		}
	}
	// Outage on flow 0: blackout, three silent cycles (one decays), then
	// recovery marker; decisions afterwards stay well below the
	// pre-outage base rate so the rate-collapse watch fires.
	emit(telemetry.Event{T: ms(810), Type: telemetry.TypeFault, Flow: -1, Reason: telemetry.FaultBlackoutStart})
	for i := int64(0); i < 3; i++ {
		reason := ""
		if i == 2 {
			reason = "decay"
		}
		emit(telemetry.Event{T: ms(840 + i*40), Type: telemetry.TypeNoAck, Flow: 0, Reason: reason, XPrev: 1.25e6, RTT: ms(25)})
	}
	emit(telemetry.Event{T: ms(960), Type: telemetry.TypeFault, Flow: -1, Reason: telemetry.FaultBlackoutEnd})
	emit(telemetry.Event{T: ms(961), Type: telemetry.TypeNoAck, Flow: 0, Reason: "recover", XPrev: 1e5})
	for i := int64(0); i < 4; i++ {
		thr := 1e5 * 8 / 1e6
		emit(telemetry.Event{
			T: ms(1000 + i*40), Type: telemetry.TypeDecision, Flow: 0,
			Winner: "x_prev", XPrev: 1e5, UPrev: u(thr, 0, 0),
			RTT: ms(30), Thr: thr,
		})
	}
	// Link-level samples and drops.
	for i := int64(0); i < 10; i++ {
		emit(telemetry.Event{T: ms(i * 100), Type: telemetry.TypeQueue, Flow: -1, Queue: 3000 * (i + 1), Rate: 2.5e6})
	}
	emit(telemetry.Event{T: ms(500), Type: telemetry.TypeDrop, Flow: 1, Reason: "tail", Bytes: 1500})
	emit(telemetry.Event{T: ms(505), Type: telemetry.TypeDrop, Flow: 1, Reason: "aqm", Bytes: 1500})
	emit(telemetry.Event{T: ms(600), Type: telemetry.TypeFault, Flow: -1, Reason: telemetry.FaultReorder})
}

func analyzeSynth(t *testing.T, cfg Config) *Report {
	t.Helper()
	a := New(cfg)
	synthTrace(a)
	a.Finalize()
	return a.Report()
}

func TestAnalyzerEndToEnd(t *testing.T) {
	r := analyzeSynth(t, Config{})

	if len(r.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(r.Flows))
	}
	f0, f1 := r.Flows[0], r.Flows[1]
	if f0.ID != 0 || f1.ID != 1 {
		t.Fatalf("flow ids = %d,%d, want 0,1", f0.ID, f1.ID)
	}

	// Flow 0: 20 synthetic cycles + 3 silent + 4 post-outage decisions.
	if f0.Cycles != 27 || f0.Decided != 24 || f0.Skipped != 3 {
		t.Errorf("flow 0 cycles/decided/skipped = %d/%d/%d, want 27/24/3", f0.Cycles, f0.Decided, f0.Skipped)
	}
	if f0.EarlyExits != 1 {
		t.Errorf("flow 0 early exits = %d, want 1", f0.EarlyExits)
	}
	if f1.Cycles != 20 || f1.Decided != 20 {
		t.Errorf("flow 1 cycles/decided = %d/%d, want 20/20", f1.Cycles, f1.Decided)
	}

	// Winner shares: cycles 0..19 give 7 x_cl (cyc%3==0), 7 x_rl, 6
	// x_prev; flow 0 adds 4 post-outage x_prev wins.
	wins := map[string]int64{}
	for _, ws := range f0.Winners {
		wins[ws.Winner] = ws.Wins
	}
	if wins["x_prev"] != 10 || wins["x_cl"] != 7 || wins["x_rl"] != 7 {
		t.Errorf("flow 0 wins = %v, want x_prev 10, x_cl 7, x_rl 7", wins)
	}
	var shareSum float64
	for _, ws := range f0.Winners {
		shareSum += ws.Share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("winner shares sum to %v, want 1", shareSum)
	}

	// Decomposition: every decision carried the triple, and the terms
	// must reconstruct the traced utility (grad/loss clamp positive).
	if f0.Decomp.Cycles != 24 {
		t.Errorf("flow 0 decomp cycles = %d, want 24", f0.Decomp.Cycles)
	}
	if f0.Decomp.ThrTerm <= 0 || f1.Decomp.DelayPenalty <= 0 || f1.Decomp.LossPenalty <= 0 {
		t.Errorf("decomposition terms not positive: %+v / %+v", f0.Decomp, f1.Decomp)
	}
	// Synthetic utilities were computed with grad=loss=0 while the
	// triple carries grad/loss > 0, so only check the identity for the
	// reconstruction direction: thr - delay - loss vs Value(triple).
	util := utility.Default()
	want := util.Value(20, 0.001, 0.01)
	got := util.Alpha*math.Pow(20, util.T) - util.Beta*20*0.001 - util.Gamma*20*0.01
	if math.Abs(want-got) > 1e-9 {
		t.Errorf("Eq. 1 identity broken: Value=%v terms=%v", want, got)
	}

	// Stage attribution: explore/eval-1/eval-2 all 10 ms per cycle,
	// exploit 10 ms until the next cycle's explore.
	for _, ss := range f1.Stages {
		if ss.Stage == "exploit" {
			continue
		}
		if ss.Frac < 0.2 || ss.Frac > 0.35 {
			t.Errorf("stage %s frac = %v, want ~0.25", ss.Stage, ss.Frac)
		}
	}

	// Quantiles: flow 1 rates are 20 Mbit/s ±5%.
	if f1.RateMbps.P50 < 18 || f1.RateMbps.P50 > 22 {
		t.Errorf("flow 1 rate p50 = %v, want ≈20", f1.RateMbps.P50)
	}
	if f0.RTTMs.N == 0 || f0.RTTMs.P99 < f0.RTTMs.P50 {
		t.Errorf("flow 0 rtt quantiles malformed: %+v", f0.RTTMs)
	}
	if f1.CycleMs.P50 < 35 || f1.CycleMs.P50 > 45 {
		t.Errorf("flow 1 cycle p50 = %v ms, want ≈40", f1.CycleMs.P50)
	}

	// Anomalies: flow 0 had a no-ACK streak of 3, one decay, and a
	// post-outage collapse (recovered to 0.1 of 1.25 Mbytes/s base).
	if f0.MaxNoAckStreak != 3 {
		t.Errorf("flow 0 max no-ack streak = %d, want 3", f0.MaxNoAckStreak)
	}
	joined := strings.Join(f0.Anomalies, "\n")
	if !strings.Contains(joined, "rate_collapse_after_blackout") {
		t.Errorf("flow 0 anomalies missing rate collapse: %q", joined)
	}
	if !strings.Contains(joined, "no_ack_streak") {
		t.Errorf("flow 0 anomalies missing no-ack streak: %q", joined)
	}
	if len(f1.Anomalies) != 0 {
		t.Errorf("flow 1 anomalies = %q, want none", f1.Anomalies)
	}

	// Link: 10 queue samples, 2 drops by reason, 1 blackout, 1 reorder.
	if r.Link.QueueBytes.N != 10 {
		t.Errorf("queue samples = %d, want 10", r.Link.QueueBytes.N)
	}
	if r.Link.Drops["tail"] != 1 || r.Link.Drops["aqm"] != 1 {
		t.Errorf("drops = %v, want tail 1, aqm 1", r.Link.Drops)
	}
	if r.Link.Blackouts != 1 || r.Link.FaultPackets != 1 {
		t.Errorf("blackouts/faultPkts = %d/%d, want 1/1", r.Link.Blackouts, r.Link.FaultPackets)
	}
	if f1.Drops != 2 {
		t.Errorf("flow 1 drops = %d, want 2", f1.Drops)
	}

	// Fairness: flow 1 enqueued twice flow 0's bytes in each window →
	// Jain of (1,2) = 9/10.
	if r.Fairness.Flows != 2 || r.Fairness.Windows == 0 {
		t.Fatalf("fairness flows/windows = %d/%d", r.Fairness.Flows, r.Fairness.Windows)
	}
	if math.Abs(r.Fairness.Mean-0.9) > 1e-6 {
		t.Errorf("Jain mean = %v, want 0.9", r.Fairness.Mean)
	}
}

// Sharding the stream and merging must reproduce the single-pass
// report byte-for-byte (counts, sketches, windows all merge exactly;
// order-sensitive detectors are confined within shards here because
// the split respects flow boundaries per event — the contract the
// per-file parallel analyzer relies on).
func TestMergeMatchesSinglePass(t *testing.T) {
	single := New(Config{})
	synthTrace(single)
	single.Finalize()

	// Shard by interleaving events across 3 analyzers. Detector state
	// (EWMA, streaks, watches) is order-sensitive so exact equality is
	// only guaranteed for count/sketch/window state; use a collector
	// that routes whole flows to fixed shards instead: flow-disjoint
	// shards make every detector shard-local.
	shards := []*Analyzer{New(Config{}), New(Config{}), New(Config{})}
	var router shardRouter
	router.route = func(e *telemetry.Event) int {
		if e.Flow < 0 {
			return 2
		}
		return e.Flow % 2
	}
	router.shards = shards
	synthTrace(&router)
	merged := New(Config{})
	for _, s := range shards {
		s.Finalize()
		merged.Merge(s)
	}

	var a, b bytes.Buffer
	if err := single.Report().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Report().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged report differs from single-pass:\n--- single ---\n%s\n--- merged ---\n%s", a.String(), b.String())
	}

	var aj, bj bytes.Buffer
	if err := single.Report().WriteJSON(&aj); err != nil {
		t.Fatal(err)
	}
	if err := merged.Report().WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	if aj.String() != bj.String() {
		t.Fatal("merged JSON report differs from single-pass")
	}
}

type shardRouter struct {
	route  func(*telemetry.Event) int
	shards []*Analyzer
}

func (r *shardRouter) Enabled() bool           { return true }
func (r *shardRouter) Emit(e *telemetry.Event) { r.shards[r.route(e)].Emit(e) }

// ReadStream must reproduce the live-tap analysis exactly: encode the
// synthetic trace to JSONL, decode-and-analyze, compare reports.
func TestReadStreamMatchesLiveTap(t *testing.T) {
	var jsonl bytes.Buffer
	rec := telemetry.NewRecorder(&jsonl)
	synthTrace(rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	fromFile, err := ReadStream(bytes.NewReader(jsonl.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	fromFile.Finalize()

	live := New(Config{})
	synthTrace(live)
	live.Finalize()

	var a, b bytes.Buffer
	if err := fromFile.Report().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := live.Report().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("file analysis differs from live tap:\n--- file ---\n%s\n--- live ---\n%s", a.String(), b.String())
	}
}

// A flow is named by its flow:<cca> span begin. When runs reuse a flow
// ID the latest run's name stands, and in Merge the later shard's; a
// shard that never saw the span keeps the name it is merged into.
func TestFlowNamesFromSpans(t *testing.T) {
	span := func(flow int, name, reason string) *telemetry.Event {
		return &telemetry.Event{Type: telemetry.TypeSpan, Flow: flow, Reason: reason, Name: name}
	}
	a := New(Config{})
	for _, e := range []*telemetry.Event{
		span(0, "flow:cubic", telemetry.SpanBegin),
		span(1, "flow:bbr", telemetry.SpanBegin),
		span(0, "flow:cubic", telemetry.SpanEnd),
		span(-1, "scenario:a", telemetry.SpanEnd),
		span(0, "flow:c-libra", telemetry.SpanBegin),
		span(0, "cycle:0", telemetry.SpanBegin),
	} {
		a.Emit(e)
	}
	synthTrace(a)
	a.Finalize()
	names := func(a *Analyzer) [2]string {
		r := a.Report()
		return [2]string{r.Flows[0].Name, r.Flows[1].Name}
	}
	if got, want := names(a), [2]string{"c-libra", "bbr"}; got != want {
		t.Fatalf("names = %q, want %q", got, want)
	}
	var txt bytes.Buffer
	if err := a.Report().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "flow 0 (c-libra)") {
		t.Fatalf("text report missing flow name:\n%s", txt.String())
	}

	later := New(Config{})
	later.Emit(span(1, "flow:copa", telemetry.SpanBegin))
	unnamed := New(Config{})
	synthTrace(unnamed)
	a.Merge(later)
	a.Merge(unnamed)
	if got, want := names(a), [2]string{"c-libra", "copa"}; got != want {
		t.Fatalf("merged names = %q, want %q", got, want)
	}
}

func TestEmptyAnalyzer(t *testing.T) {
	a := New(Config{})
	a.Finalize()
	r := a.Report()
	if r.Events != 0 || len(r.Flows) != 0 {
		t.Fatalf("empty analyzer reported %d events, %d flows", r.Events, len(r.Flows))
	}
	var txt, js bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
}

// Per-link attribution: labelled link events populate Report.Links
// (sorted by label) alongside the aggregate Link view; unlabelled
// traces leave Links empty so pre-topology reports are unchanged.
func TestPerLinkAttribution(t *testing.T) {
	a := New(Config{})
	emit := func(e telemetry.Event) { a.Emit(&e) }
	emit(telemetry.Event{T: 1e6, Type: telemetry.TypeQueue, Link: "h0", Flow: -1, Queue: 1000, Rate: 12e6})
	emit(telemetry.Event{T: 2e6, Type: telemetry.TypeQueue, Link: "h1", Flow: -1, Queue: 9000, Rate: 6e6})
	emit(telemetry.Event{T: 3e6, Type: telemetry.TypeDrop, Link: "h1", Flow: 0, Seq: 7, Bytes: 1500, Reason: "tail"})
	emit(telemetry.Event{T: 4e6, Type: telemetry.TypeDrop, Link: "h1", Flow: 0, Seq: 9, Bytes: 1500, Reason: "aqm"})
	emit(telemetry.Event{T: 5e6, Type: telemetry.TypeFault, Link: "h0", Flow: -1, Reason: telemetry.FaultBlackoutStart})
	a.Finalize()
	r := a.Report()

	if len(r.Links) != 2 || r.Links[0].Label != "h0" || r.Links[1].Label != "h1" {
		t.Fatalf("Links = %+v, want h0,h1 sorted", r.Links)
	}
	h1 := r.Links[1]
	if h1.Drops["tail"] != 1 || h1.Drops["aqm"] != 1 || h1.DropBytes != 3000 {
		t.Errorf("h1 drops = %v (%d bytes), want tail 1 aqm 1 (3000 bytes)", h1.Drops, h1.DropBytes)
	}
	if r.Links[0].Blackouts != 1 || r.Links[1].Blackouts != 0 {
		t.Errorf("blackout attribution wrong: h0=%d h1=%d", r.Links[0].Blackouts, r.Links[1].Blackouts)
	}
	// The aggregate view still sees everything.
	if r.Link.Drops["tail"] != 1 || r.Link.DropBytes != 3000 || r.Link.Blackouts != 1 {
		t.Errorf("aggregate link view lost events: %+v", r.Link)
	}
	if r.Link.QueueBytes.N != 2 || r.Links[0].QueueBytes.N != 1 {
		t.Errorf("queue sample counts: aggregate %d, h0 %d", r.Link.QueueBytes.N, r.Links[0].QueueBytes.N)
	}

	// Merging a shard with overlapping and new labels adds exactly.
	b := New(Config{})
	emit2 := func(e telemetry.Event) { b.Emit(&e) }
	emit2(telemetry.Event{T: 6e6, Type: telemetry.TypeDrop, Link: "h1", Flow: 1, Bytes: 1500, Reason: "tail"})
	emit2(telemetry.Event{T: 7e6, Type: telemetry.TypeQueue, Link: "h2", Flow: -1, Queue: 50})
	b.Finalize()
	a.Merge(b)
	r = a.Report()
	if len(r.Links) != 3 || r.Links[2].Label != "h2" {
		t.Fatalf("merged Links = %d entries, want 3 with h2 last", len(r.Links))
	}
	if r.Links[1].Drops["tail"] != 2 {
		t.Errorf("merged h1 tail drops = %d, want 2", r.Links[1].Drops["tail"])
	}

	// Text report gains a per-link section only when labels exist.
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "per-link attribution:") {
		t.Error("text report missing per-link attribution section")
	}
	empty := New(Config{})
	empty.Emit(&telemetry.Event{T: 1e6, Type: telemetry.TypeQueue, Flow: -1, Queue: 10})
	var ebuf bytes.Buffer
	if err := empty.Report().WriteText(&ebuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ebuf.String(), "per-link") {
		t.Error("unlabelled trace grew a per-link section")
	}
}

// anomalyCounts is one flow's detector counters as a fold reports them.
type anomalyCounts struct {
	collapses, regressions, noAckEpisodes, maxNoAckStreak int64
}

// episodes returns the counters one callback each fires, in the order
// collapses, regressions, no-ACK episodes.
func (c anomalyCounts) episodes() [3]int64 {
	return [3]int64{c.collapses, c.regressions, c.noAckEpisodes}
}

// episodesOf counts one flow's callbacks by reason, in the order
// anomalyCounts.episodes returns.
func episodesOf(hits []hit, flow int) (n [3]int64) {
	for _, h := range hits {
		if h.flow != flow {
			continue
		}
		switch h.reason {
		case telemetry.AnomalyCollapse:
			n[0]++
		case telemetry.AnomalyRegression:
			n[1]++
		case telemetry.AnomalyNoAckStreak:
			n[2]++
		}
	}
	return n
}

// detectorFold is one of the two folds that run the anomaly detectors:
// build returns it as a tracer, its Finalize, a reader of one flow's
// counters and the anomaly callbacks it has fired. The Analyzer takes
// no callback, so its fired list is nil and only its counters are
// checked.
type detectorFold struct {
	name  string
	build func() (telemetry.Tracer, func(), func(flow int) anomalyCounts, *[]hit)
}

// detectorFolds are the standalone Detector and the Analyzer, which
// reports the counters of the Detector it feeds. Every test of a
// detector rule runs against both.
var detectorFolds = []detectorFold{
	{"detector", func() (telemetry.Tracer, func(), func(int) anomalyCounts, *[]hit) {
		hits := []hit{} // non-nil: a Detector that fired nothing still has a list
		d := NewDetector(func(flow int, t int64, reason string) {
			hits = append(hits, hit{flow, t, reason})
		})
		return d, d.Finalize, func(flow int) anomalyCounts {
			c := d.counts(flow)
			return anomalyCounts{c.collapses, c.regressions, c.noAckEpisodes, c.maxNoAckStreak}
		}, &hits
	}},
	{"analyzer", func() (telemetry.Tracer, func(), func(int) anomalyCounts, *[]hit) {
		a := New(Config{})
		return a, a.Finalize, func(flow int) anomalyCounts {
			for _, fr := range a.Report().Flows {
				if fr.ID == flow {
					return anomalyCounts{fr.Collapses, fr.Regressions, fr.NoAckEpisodes, fr.MaxNoAckStreak}
				}
			}
			return anomalyCounts{}
		}, nil
	}},
}

// TestNoAckStreakOncePerOutage checks the no-ACK trigger fires once per
// outage, at its first decay cycle: later decays of the same outage
// stay quiet and a recover marker re-arms it. Silent cycles that never
// decay (ACKs still arriving) fire nothing.
func TestNoAckStreakOncePerOutage(t *testing.T) {
	for _, fold := range detectorFolds {
		t.Run(fold.name, func(t *testing.T) {
			tap, _, counts, hits := fold.build()
			emit := func(t int64, reason string) {
				tap.Emit(&telemetry.Event{T: t, Type: telemetry.TypeNoAck, Flow: 0, Reason: reason})
			}
			emit(90, "")
			emit(95, "")
			for i := int64(0); i < 3; i++ {
				emit(100+i, "decay")
			}
			emit(200, "recover")
			emit(300, "decay")
			if hits != nil {
				var fired []int64
				for _, h := range *hits {
					if h.reason == telemetry.AnomalyNoAckStreak {
						fired = append(fired, h.t)
					}
				}
				if len(fired) != 2 || fired[0] != 100 || fired[1] != 300 {
					t.Fatalf("no_ack_streak fired at %v, want [100 300]", fired)
				}
			}
			if got := counts(0).noAckEpisodes; got != 2 {
				t.Errorf("no-ACK episodes = %d, want 2", got)
			}
		})
	}
}

// TestDetectorsScopedToRun checks that a stream holding two runs, whose
// flow IDs restart at 0, gives the detections and the fairness of the
// two runs analysed apart. Run a ends with flow 0's recovery watch open
// (a collapse) and flow 1 mid-outage, at a high utility; run b opens at
// a low but steady utility and flow 1 decays again. In each run's first
// window one flow sends three times the other's bytes (Jain 0.8), flow
// 0 in run a and flow 1 in run b, so pooling the runs' windows by index
// would read one even window (Jain 1). The detections are checked on
// both detector folds, the fairness on the Analyzer.
func TestDetectorsScopedToRun(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	decide := func(t int64, flow int, xprev, u float64) telemetry.Event {
		return telemetry.Event{T: ms(t), Type: telemetry.TypeDecision, Flow: flow, Winner: "x_prev", XPrev: xprev, UPrev: u}
	}
	noAck := func(t int64, flow int, reason string, xprev float64) telemetry.Event {
		return telemetry.Event{T: ms(t), Type: telemetry.TypeNoAck, Flow: flow, Reason: reason, XPrev: xprev}
	}
	end := func(name string) telemetry.Event {
		return telemetry.Event{T: ms(1000), Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanEnd, Name: "scenario:" + name}
	}
	send := func(t int64, flow int, bytes int64) telemetry.Event {
		return telemetry.Event{T: ms(t), Type: telemetry.TypeEnqueue, Flow: flow, Bytes: bytes}
	}
	runA := []telemetry.Event{send(100, 0, 3000), send(101, 1, 1000)}
	runB := []telemetry.Event{send(100, 0, 1000), send(101, 1, 3000)}
	for i := int64(1); i <= 10; i++ {
		runA = append(runA, decide(40*i, 0, 1.25e6, 50), decide(40*i+1, 1, 1.25e6, 50))
	}
	runA = append(runA,
		noAck(440, 0, "", 1.25e6), noAck(480, 0, "decay", 6e5), noAck(500, 1, "decay", 6e5),
		noAck(560, 0, "recover", 1e5), decide(600, 0, 1e5, 50), end("a"))
	for i := int64(1); i <= 5; i++ {
		runB = append(runB, decide(40*i, 0, 2e6, 5))
	}
	runB = append(runB, noAck(280, 1, "decay", 6e5), end("b"))

	want := []hit{
		{0, ms(480), telemetry.AnomalyNoAckStreak},
		{1, ms(500), telemetry.AnomalyNoAckStreak},
		{0, ms(1000), telemetry.AnomalyCollapse},
		{1, ms(280), telemetry.AnomalyNoAckStreak},
	}
	for _, fold := range detectorFolds {
		t.Run(fold.name, func(t *testing.T) {
			hitsA, countsA := detect(fold, runA)
			hitsB, countsB := detect(fold, runB)
			whole, counts := detect(fold, runA, runB)
			if hitsA != nil {
				if apart := append(hitsA, hitsB...); !reflect.DeepEqual(apart, want) {
					t.Fatalf("runs analysed apart fired %v, want %v", apart, want)
				}
				if !reflect.DeepEqual(whole, want) {
					t.Fatalf("runs analysed together fired %v, want %v", whole, want)
				}
			}
			for flow := 0; flow < 2; flow++ {
				a, b := countsA(flow).episodes(), countsB(flow).episodes()
				apart := [3]int64{a[0] + b[0], a[1] + b[1], a[2] + b[2]}
				if w := episodesOf(want, flow); apart != w || counts(flow).episodes() != w {
					t.Fatalf("flow %d episodes: apart %v, together %v, want %v", flow, apart, counts(flow).episodes(), w)
				}
			}
		})
	}

	analyse := func(runs ...[]telemetry.Event) *Analyzer {
		a := New(Config{})
		for _, run := range runs {
			for i := range run {
				a.Emit(&run[i])
			}
		}
		a.Finalize()
		return a
	}
	anA, anB, anWhole := analyse(runA), analyse(runB), analyse(runA, runB)
	merged := New(Config{})
	merged.Merge(anA)
	merged.Merge(anB)
	apartFair := merged.Report().Fairness
	if apartFair.Flows != 2 || apartFair.Windows != 2 || math.Abs(apartFair.Mean-0.8) > 1e-12 ||
		math.Abs(apartFair.Min-0.8) > 1e-12 || apartFair.Below90 != 2 {
		t.Fatalf("runs analysed apart and merged: fairness %+v, want 2 flows, 2 windows at Jain 0.8", apartFair)
	}
	if got := anWhole.Report().Fairness; got != apartFair {
		t.Fatalf("runs analysed together: fairness %+v, apart %+v", got, apartFair)
	}
}

// hit is one anomaly callback.
type hit struct {
	flow   int
	t      int64
	reason string
}

// detect feeds the runs in order into a fresh fold, finalizes it and
// returns the anomaly callbacks it fired, in firing order (nil for the
// Analyzer), and its counter reader.
func detect(fold detectorFold, runs ...[]telemetry.Event) ([]hit, func(int) anomalyCounts) {
	tap, finalize, counts, hits := fold.build()
	for _, run := range runs {
		for i := range run {
			tap.Emit(&run[i])
		}
	}
	finalize()
	if hits == nil {
		return nil, counts
	}
	return *hits, counts
}

// randomDetectorStream is a seeded stream of n events over five flows
// that drives every detector rule: decisions whose winner utility
// sometimes drops under a quarter of its level, silent cycles that
// sometimes decay, recover markers after which a flow's rate sometimes
// stays at a tenth of its level, enqueues the detectors skip, and
// scenario span ends that restart the flows.
func randomDetectorStream(seed int64, n int) []telemetry.Event {
	const flows = 5
	rng := rand.New(rand.NewSource(seed))
	var level [flows]float64
	for i := range level {
		level[i] = 1e6
	}
	winners := []string{"x_prev", "x_cl", "x_rl", ""}
	out := make([]telemetry.Event, 0, n)
	var tm int64
	for len(out) < n {
		tm += rng.Int63n(int64(20 * time.Millisecond))
		fl := rng.Intn(flows)
		e := telemetry.Event{T: tm, Flow: fl}
		switch r := rng.Intn(100); {
		case r < 40:
			u := 50 + 10*rng.Float64()
			if rng.Float64() < 0.2 {
				u = 20*rng.Float64() - 10
			}
			e.Type, e.Winner = telemetry.TypeDecision, winners[rng.Intn(len(winners))]
			e.XPrev = level[fl] * (0.8 + 0.4*rng.Float64())
			e.UPrev, e.UCl, e.URl = u, u, u
		case r < 55:
			e.Type, e.XPrev = telemetry.TypeNoAck, level[fl]
			if rng.Intn(2) == 0 {
				e.Reason = "decay"
			}
		case r < 60:
			level[fl] = 1e6
			if rng.Intn(2) == 0 {
				level[fl] = 1e5
			}
			e.Type, e.Reason, e.XPrev = telemetry.TypeNoAck, "recover", level[fl]
		case r < 98:
			e.Type, e.Bytes = telemetry.TypeEnqueue, 1500
		default:
			e = telemetry.Event{T: tm, Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanEnd, Name: "scenario:r"}
		}
		out = append(out, e)
	}
	return out
}

// TestDetectorMatchesAnalyzer feeds one seeded random stream into the
// standalone Detector and the Analyzer: both must report the same
// per-flow counters, the Detector's callbacks must add up to them, and
// the stream must trip every detector.
func TestDetectorMatchesAnalyzer(t *testing.T) {
	stream := randomDetectorStream(24, 20000)
	var hits []hit
	var counts [2]func(int) anomalyCounts
	for i, fold := range detectorFolds {
		h, c := detect(fold, stream)
		if h != nil {
			hits = h
		}
		counts[i] = c
	}
	fired := map[string]int{}
	for _, h := range hits {
		fired[h.reason]++
	}
	for _, reason := range []string{telemetry.AnomalyCollapse, telemetry.AnomalyNoAckStreak, telemetry.AnomalyRegression} {
		if fired[reason] == 0 {
			t.Errorf("stream never fired %s (fired %v)", reason, fired)
		}
	}
	for flow := 0; flow < 5; flow++ {
		if d, a := counts[0](flow), counts[1](flow); d != a {
			t.Errorf("flow %d: detector counts %+v, analyzer %+v", flow, d, a)
		}
		if c, h := counts[0](flow).episodes(), episodesOf(hits, flow); c != h {
			t.Errorf("flow %d: detector counts %v episodes, its callbacks %v", flow, c, h)
		}
	}
}

// Report.ByType counts every schema type under its own name and any
// type outside the schema as read, and Merge adds both.
func TestByTypeCounts(t *testing.T) {
	types := []telemetry.Type{
		telemetry.TypeStage, telemetry.TypeEarlyExit, telemetry.TypeDecision, telemetry.TypeNoAck,
		telemetry.TypeEnqueue, telemetry.TypeDrop, telemetry.TypeQueue, telemetry.TypeAction,
		telemetry.TypeFault, telemetry.TypeSpan, telemetry.TypeAnomaly, telemetry.TypeProfile,
		"foreign",
	}
	feed := func() *Analyzer {
		a := New(Config{})
		for i, ty := range types {
			for k := 0; k <= i; k++ {
				a.Emit(&telemetry.Event{T: int64(k), Type: ty, Flow: -1})
			}
		}
		return a
	}
	want := map[string]int64{}
	for i, ty := range types {
		want[string(ty)] = int64(i + 1)
	}
	a := feed()
	if got := a.Report().ByType; !reflect.DeepEqual(got, want) {
		t.Fatalf("ByType = %v, want %v", got, want)
	}
	a.Merge(feed())
	for ty := range want {
		want[ty] *= 2
	}
	if got := a.Report().ByType; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged ByType = %v, want %v", got, want)
	}
}

// A one-flow run has no fairness to score: a multi-run stream of a
// one-flow run and then a two-flow run reports only the second run's
// windows, where counting the first would add a window at Jain 1.
func TestFairnessSkipsOneFlowRuns(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	send := func(t int64, flow int, bytes int64) telemetry.Event {
		return telemetry.Event{T: ms(t), Type: telemetry.TypeEnqueue, Flow: flow, Bytes: bytes}
	}
	end := telemetry.Event{T: ms(2000), Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanEnd, Name: "scenario:x"}
	stream := []telemetry.Event{
		send(100, 0, 1000), send(1100, 0, 1000), end, // one flow, two windows
		send(100, 0, 3000), send(101, 1, 1000), end, // two flows, one window at Jain 0.8
	}
	a := New(Config{})
	for i := range stream {
		a.Emit(&stream[i])
	}
	a.Finalize()
	got := a.Report().Fairness
	if got.Flows != 2 || got.Windows != 1 || math.Abs(got.Mean-0.8) > 1e-12 || got.Below90 != 1 {
		t.Fatalf("fairness %+v, want 2 flows and the two-flow run's one window at Jain 0.8", got)
	}
}
