package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file implements the time-series layer: fixed-capacity
// downsampling ring series with min/mean/max per bucket. Bucket
// boundaries are keyed on virtual (simulation) time only — bucket i of
// a series with width w covers [i*w, (i+1)*w) — so two captures of the
// same event stream produce identical series regardless of wall clock,
// worker count, or whether the stream was live or replayed from a
// JSONL file. When a sample lands past the last bucket, the series
// halves its resolution in place (adjacent buckets fold pairwise and
// the width doubles), so a series covers [0, now) forever in O(cap)
// memory. The Add path performs no allocation (TestTimeSeriesBudget).

// TSKind discriminates how a series' buckets are summarised.
type TSKind uint8

const (
	// TSGauge series report the min/mean/max of the samples that landed
	// in each bucket (queue depth, RTT, rates sampled at decisions).
	TSGauge TSKind = iota
	// TSRate series report the per-second rate of the summed samples in
	// each bucket (bytes enqueued, drops, CE marks), scaled by the
	// series' unit factor.
	TSRate
)

func (k TSKind) String() string {
	if k == TSRate {
		return "rate"
	}
	return "gauge"
}

// tsBucket is one downsampling bucket.
type tsBucket struct {
	min, max, sum float64
	n             int64
}

// merge folds o into b.
func (b *tsBucket) merge(o tsBucket) {
	if o.n == 0 {
		return
	}
	if b.n == 0 {
		*b = o
		return
	}
	if o.min < b.min {
		b.min = o.min
	}
	if o.max > b.max {
		b.max = o.max
	}
	b.sum += o.sum
	b.n += o.n
}

// TSeries is one named fixed-capacity downsampling series. Not
// goroutine-safe on its own: the owning TSDB/TSCollector serialises
// access.
type TSeries struct {
	name  string
	kind  TSKind
	scale float64 // unit factor applied to rate values at snapshot time
	width int64   // ns per bucket; doubles on fold
	used  int     // highest occupied bucket index + 1
	bk    []tsBucket
}

// Name returns the series name (with any {label} block).
func (s *TSeries) Name() string { return s.name }

// Width returns the current bucket width.
func (s *TSeries) Width() time.Duration { return time.Duration(s.width) }

// Add folds one sample at virtual time t (ns) into the series.
// Negative times clamp to bucket zero. Zero allocation.
func (s *TSeries) Add(t int64, v float64) {
	if t < 0 {
		t = 0
	}
	i := int(t / s.width)
	for i >= len(s.bk) {
		s.fold()
		i = int(t / s.width)
	}
	b := &s.bk[i]
	if b.n == 0 {
		b.min, b.max = v, v
	} else {
		if v < b.min {
			b.min = v
		}
		if v > b.max {
			b.max = v
		}
	}
	b.sum += v
	b.n++
	if i >= s.used {
		s.used = i + 1
	}
}

// fold halves the series resolution in place: bucket pairs (2k, 2k+1)
// merge into bucket k and the width doubles. Deterministic — folding
// depends only on the samples already present.
func (s *TSeries) fold() {
	half := (s.used + 1) / 2
	for k := 0; k < half; k++ {
		b := s.bk[2*k]
		if 2*k+1 < s.used {
			b.merge(s.bk[2*k+1])
		}
		s.bk[k] = b
	}
	for k := half; k < s.used; k++ {
		s.bk[k] = tsBucket{}
	}
	s.used = half
	s.width *= 2
}

// mergeSeries folds src into s. Widths align by folding the finer side
// down to the coarser one (both are the base width times a power of
// two); buckets then combine additively. src is left untouched.
func (s *TSeries) mergeSeries(src *TSeries) {
	for s.width < src.width {
		s.fold()
	}
	if src.used == 0 {
		return
	}
	// Ensure the coarser grid can hold src's extent.
	for int(int64(src.used-1)*src.width/s.width) >= len(s.bk) {
		s.fold()
	}
	for j := 0; j < src.used; j++ {
		if src.bk[j].n == 0 {
			continue
		}
		i := int(int64(j) * src.width / s.width)
		s.bk[i].merge(src.bk[j])
		if i >= s.used {
			s.used = i + 1
		}
	}
}

// TSPoint is one non-empty bucket in a series snapshot. Min/Mean/Max
// summarise the raw samples; Rate is the scaled per-second rate of the
// bucket's sum (meaningful for TSRate series, zero otherwise).
type TSPoint struct {
	TMs  float64 `json:"t_ms"`
	N    int64   `json:"n"`
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	Rate float64 `json:"rate,omitempty"`
}

// TSSeriesSnapshot is the exportable view of one series.
type TSSeriesSnapshot struct {
	Name     string    `json:"name"`
	Kind     string    `json:"kind"`
	BucketMs float64   `json:"bucket_ms"`
	Points   []TSPoint `json:"points"`
}

// snapshot materialises the series' non-empty buckets.
func (s *TSeries) snapshot() TSSeriesSnapshot {
	out := TSSeriesSnapshot{
		Name:     s.name,
		Kind:     s.kind.String(),
		BucketMs: float64(s.width) / 1e6,
		Points:   []TSPoint{},
	}
	sec := float64(s.width) / 1e9
	for i := 0; i < s.used; i++ {
		b := s.bk[i]
		if b.n == 0 {
			continue
		}
		p := TSPoint{
			TMs:  float64(int64(i)*s.width) / 1e6,
			N:    b.n,
			Min:  b.min,
			Mean: b.sum / float64(b.n),
			Max:  b.max,
		}
		if s.kind == TSRate {
			p.Rate = b.sum * s.scale / sec
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// lastBucket returns the most recent non-empty bucket at or before
// index limit (inclusive; pass used-1 for "latest"). ok is false when
// the series is empty.
func (s *TSeries) lastBucket(limit int) (tsBucket, bool) {
	if limit >= s.used {
		limit = s.used - 1
	}
	for i := limit; i >= 0; i-- {
		if s.bk[i].n > 0 {
			return s.bk[i], true
		}
	}
	return tsBucket{}, false
}

// TSDB is a set of named series sharing one base bucket width. Series
// registration is idempotent. TSDB methods are not goroutine-safe;
// TSCollector wraps one with a lock for live use.
type TSDB struct {
	width  int64
	cap    int
	series map[string]*TSeries
}

// Defaults for NewTSDB.
const (
	DefaultTSBucket   = 100 * time.Millisecond
	DefaultTSCapacity = 512
)

// NewTSDB returns an empty series database. bucket <= 0 and capacity
// <= 0 fall back to the defaults (100 ms x 512 buckets, covering 51.2 s
// before the first resolution fold).
func NewTSDB(bucket time.Duration, capacity int) *TSDB {
	if bucket <= 0 {
		bucket = DefaultTSBucket
	}
	if capacity <= 0 {
		capacity = DefaultTSCapacity
	}
	return &TSDB{
		width:  bucket.Nanoseconds(),
		cap:    capacity,
		series: make(map[string]*TSeries, 32),
	}
}

// Series returns (registering on first use) the named series. scale is
// the unit factor rate buckets multiply by at snapshot time (ignored
// for gauges; pass 1 when the summed unit is already per-second-ready).
func (db *TSDB) Series(name string, kind TSKind, scale float64) *TSeries {
	if s, ok := db.series[name]; ok {
		return s
	}
	if scale == 0 {
		scale = 1
	}
	s := &TSeries{
		name:  name,
		kind:  kind,
		scale: scale,
		width: db.width,
		bk:    make([]tsBucket, db.cap),
	}
	db.series[name] = s
	return s
}

// Merge folds src into db (src is left untouched). Same-named series
// combine bucket-wise after width alignment; unseen series are deep-
// copied. Merging shards in a fixed order yields byte-identical
// snapshots at any worker count, matching the sweep engine's contract.
func (db *TSDB) Merge(src *TSDB) {
	if src == nil || src == db {
		return
	}
	names := make([]string, 0, len(src.series))
	for name := range src.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := src.series[name]
		ds := db.Series(name, ss.kind, ss.scale)
		ds.mergeSeries(ss)
	}
}

// TSSnapshot is the exportable view of a whole database, series sorted
// by name.
type TSSnapshot struct {
	BaseBucketMs float64            `json:"base_bucket_ms"`
	Series       []TSSeriesSnapshot `json:"series"`
}

// Snapshot materialises every series, sorted by name.
func (db *TSDB) Snapshot() TSSnapshot {
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	sort.Strings(names)
	out := TSSnapshot{BaseBucketMs: float64(db.width) / 1e6, Series: []TSSeriesSnapshot{}}
	for _, name := range names {
		out.Series = append(out.Series, db.series[name].snapshot())
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON. Field order is fixed
// by the snapshot structs and series sort by name, so identical state
// renders byte-identically.
func (db *TSDB) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db.Snapshot())
}

// ExportProm publishes every series' latest bucket into reg as a
// libra_ts_* gauge carrying the series' own label block: gauges export
// the bucket mean, rates the scaled per-second rate. Call before
// writing a metrics snapshot (or on each /metrics request) — the
// gauges are a point-in-time mirror, not a live feed.
func (db *TSDB) ExportProm(reg *Registry) {
	if reg == nil {
		return
	}
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := db.series[name]
		b, ok := s.lastBucket(s.used - 1)
		if !ok {
			continue
		}
		v := b.sum / float64(b.n)
		if s.kind == TSRate {
			v = b.sum * s.scale / (float64(s.width) / 1e9)
		}
		reg.Gauge("libra_ts_"+name, "latest time-series bucket ("+s.kind.String()+")").Set(v)
	}
}

// tsName builds a labelled series name; label values go through %q so
// arbitrary topology labels stay parseable.
func tsName(base, label, value string) string {
	if value == "" {
		return base
	}
	return fmt.Sprintf("%s{%s=%q}", base, label, value)
}

// tsLabelValue extracts the value of the (single) label on a collector
// series name, "" when unlabelled.
func tsLabelValue(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	var v string
	inner := strings.TrimSuffix(name[i+1:], "}")
	if j := strings.IndexByte(inner, '"'); j >= 0 {
		_ = json.Unmarshal([]byte(inner[j:]), &v)
	}
	return v
}
