// Package cliutil holds the operator rig the run commands share
// (libra-bench, libra-sim, libra-lab and libra-train): one set of
// observability flags, wired once into a RunContext and flushed once.
// The rig composes a JSONL trace sink, the flight recorder and its
// anomaly tap, the time-series collector and the live flow dashboard,
// and serves pprof plus /metrics.
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"
	"time"

	"libra/internal/analyze"
	"libra/internal/exp"
	"libra/internal/telemetry"
)

// Rig is the operator's observability rig. AddRig declares its flags,
// Open wires the sinks they select into a RunContext, and Close
// flushes them.
type Rig struct {
	parallel   *int
	traceOut   *string
	metricsOut *string
	metricsFmt *string
	flightOut  *string
	pprofAddr  *string
	httpAddr   *string
	tsOut      *string

	rc          *exp.RunContext
	ts          *telemetry.TSCollector
	closeTracer func() error
	closeFlight func() error
	stopHealth  func()
}

// AddRig registers the rig's flags on fs.
func AddRig(fs *flag.FlagSet) *Rig {
	return &Rig{
		parallel:   fs.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS)"),
		traceOut:   fs.String("trace-out", "", "write a JSONL telemetry event stream of every run to this file"),
		metricsOut: fs.String("metrics-out", "", "write a metrics snapshot to this file after the run"),
		metricsFmt: fs.String("metrics-format", "auto", "metrics snapshot format: auto|json|prom"),
		flightOut:  fs.String("flight-out", "", "directory for flight-recorder dumps on detected anomalies (empty = off)"),
		pprofAddr:  fs.String("pprof", "", "serve net/http/pprof and /metrics on this address"),
		httpAddr:   fs.String("http", "", "serve the live flow dashboard (plus pprof and /metrics) on this address"),
		tsOut:      fs.String("timeseries-out", "", "write the downsampled time-series snapshot (JSON) to this file after the run"),
	}
}

// Open returns the run context for seed with the selected sinks
// composed into its tracer, in this order: JSONL recorder, flight
// recorder, anomaly tap, time-series collector, live dashboard. The
// anomaly tap follows the flight recorder so a dump already holds the
// event that tripped it. Open also starts the health sampler and the
// debug server. topo is the topology of every scenario that carries
// none, and the dashboard's map; nil means the single bottleneck.
func (r *Rig) Open(seed int64, topo *exp.TopoSpec) (*exp.RunContext, error) {
	rc := exp.NewRunContext(seed)
	rc.Workers = *r.parallel
	rc.Topo = topo
	flight, closeFlight, err := OpenFlight(*r.flightOut, rc.Metrics)
	if err != nil {
		return nil, err
	}
	tracer, closeTracer, err := openTracer(*r.traceOut)
	if err != nil {
		return nil, err
	}
	sinks := []telemetry.Tracer{tracer, FlightTap(flight), AnomalyTap(flight)}
	// The time-series collector taps the stream whenever anything
	// consumes it: a snapshot file, the debug server or the dashboard.
	if *r.tsOut != "" || *r.pprofAddr != "" || *r.httpAddr != "" {
		r.ts = telemetry.NewTSCollector(0, 0)
		sinks = append(sinks, r.ts)
	}
	rc.Health = telemetry.NewHealth(rc.Metrics)
	r.stopHealth = rc.Health.Start(time.Second)
	serve(*r.pprofAddr, debugMux(rc.Metrics, r.ts))
	if *r.httpAddr != "" {
		live := analyze.New(analyze.Config{})
		serve(*r.httpAddr, dashboardMux(rc.Metrics, r.ts, topo, live))
		sinks = append(sinks, live)
		fmt.Printf("live dashboard: http://%s/\n", *r.httpAddr)
	}
	rc.Tracer = telemetry.Multi(sinks...)
	r.rc, r.closeTracer, r.closeFlight = rc, closeTracer, closeFlight
	return rc, nil
}

// Close flushes the rig in order: recorder tail, flight recorder,
// final health sample, time-series snapshot, metrics snapshot. Every
// step runs; the first error comes back prefixed with its flag name.
func (r *Rig) Close() error {
	var first error
	keep := func(flagName string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", flagName, err)
		}
	}
	keep("trace-out", r.closeTracer())
	keep("flight-out", r.closeFlight())
	r.stopHealth()
	if r.ts != nil {
		r.ts.ExportProm(r.rc.Metrics)
		keep("timeseries-out", writeFile(*r.tsOut, r.ts.WriteJSON))
	}
	keep("metrics-out", writeMetrics(r.rc.Metrics, *r.metricsOut, *r.metricsFmt))
	return first
}

// openTracer opens a JSONL event sink at path. It returns a nil tracer
// (and a no-op closer) when path is empty. The closer flushes the tail
// and prints the event count.
func openTracer(path string) (telemetry.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	rec := telemetry.NewRecorder(f)
	return rec, func() error {
		if err := rec.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", rec.Events(), path)
		return nil
	}, nil
}

// OpenFlight builds an always-on flight recorder dumping anomaly
// snapshots into dir (created if missing); counters register into reg
// when non-nil. Empty dir returns a nil recorder and a no-op closer,
// so callers can wire the result unconditionally. The closer reports
// how many dumps were written.
func OpenFlight(dir string, reg *telemetry.Registry) (*telemetry.FlightRecorder, func() error, error) {
	if dir == "" {
		return nil, func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	fl := telemetry.NewFlightRecorder(telemetry.FlightConfig{Dir: dir, Metrics: reg})
	return fl, func() error {
		if n := fl.Dumps(); n > 0 {
			fmt.Printf("flight recorder: %d dump(s) in %s\n", n, dir)
		}
		return fl.Err()
	}, nil
}

// FlightTap converts a possibly-nil flight recorder into a value safe
// to hand telemetry.Multi (a typed-nil would defeat its nil check).
func FlightTap(fl *telemetry.FlightRecorder) telemetry.Tracer {
	if fl == nil {
		return nil
	}
	return fl
}

// AnomalyTap returns the detector fold (analyze.Detector: rate
// collapse, no-ACK streaks, utility regression) wired to trigger a
// flight dump when a detector fires; nil when fl is nil. It reads only
// the decision, no_ack and scenario span-end events, not the full
// analysis. Compose it AFTER the flight recorder in telemetry.Multi so
// the triggering event is already in the ring when the dump is cut.
// The detectors are purely event-driven, so dump triggers inherit the
// event stream's worker-count independence.
func AnomalyTap(fl *telemetry.FlightRecorder) telemetry.Tracer {
	if fl == nil {
		return nil
	}
	return analyze.NewDetector(fl.TriggerDump)
}

// writeFile creates path and fills it with write. Empty path is a
// no-op.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics exports a registry snapshot to path. Format "auto"
// derives from the extension: .json → JSON, anything else → Prometheus
// text exposition. Empty path is a no-op.
func writeMetrics(reg *telemetry.Registry, path, format string) error {
	write := reg.WritePrometheus
	switch {
	case path == "", format == "prom":
	case format == "json", format == "auto" && strings.HasSuffix(path, ".json"):
		write = reg.WriteJSON
	case format != "auto":
		return fmt.Errorf("unknown metrics format %q (want auto, json or prom)", format)
	}
	return writeFile(path, write)
}

// healthHandler serves the libra_health_* gauges as a flat JSON object
// for the dashboard's health line.
func healthHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := reg.Snapshot()
		out := make(map[string]float64, 8)
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, "libra_health_") {
				out[strings.TrimPrefix(name, "libra_health_")] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(out)
	})
}

// getOnly rejects everything but GET/HEAD with 405 so the read-only
// JSON endpoints can't be POSTed to by accident.
func getOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// debugMux returns a dedicated mux wired with the pprof handlers and,
// when reg is non-nil, the registry at /metrics. A non-nil ts adds
// /timeseries (the full downsampled-series snapshot as JSON) and
// refreshes the libra_ts_* gauges into reg on every /metrics scrape,
// so Prometheus always sees the latest buckets. Routes are explicit
// rather than inherited from http.DefaultServeMux, so importing this
// package never leaks debug handlers into an application's default
// mux (and nothing another package hangs on the default mux leaks
// into the debug server).
func debugMux(reg *telemetry.Registry, ts *telemetry.TSCollector) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		metrics := reg.Handler()
		if ts != nil {
			inner := metrics
			metrics = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				ts.ExportProm(reg)
				inner.ServeHTTP(w, r)
			})
		}
		mux.Handle("/metrics", getOnly(metrics))
		mux.Handle("/health", getOnly(healthHandler(reg)))
	}
	if ts != nil {
		mux.Handle("/timeseries", getOnly(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Cache-Control", "no-store")
			if err := ts.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})))
	}
	return mux
}

// dashboardMux is the live flow dashboard: /flows JSON snapshots of
// the analyzer live and a polling HTML view at /, on top of the debug
// mux. A non-nil ts additionally serves /timeseries and /topo, and the
// HTML view renders the topology weathermap from the latter (topo may
// be nil: single-bottleneck runs get a synthetic two-node view).
func dashboardMux(reg *telemetry.Registry, ts *telemetry.TSCollector, topo *exp.TopoSpec, live *analyze.Analyzer) *http.ServeMux {
	mux := debugMux(reg, ts)
	analyze.ServeLive(mux, live)
	if ts != nil {
		mux.Handle("/topo", getOnly(topoHandler(ts, topo)))
	}
	return mux
}

// topoLinkView is one /topo link: the spec's geometry joined with the
// collector's live stats (zero-valued until traffic reaches the link).
type topoLinkView struct {
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	telemetry.LinkLive
}

// topoView is the /topo JSON body the dashboard weathermap renders.
type topoView struct {
	Name  string         `json:"name,omitempty"`
	Nodes []string       `json:"nodes"`
	Links []topoLinkView `json:"links"`
}

// buildTopoView joins a topology spec with the collector's live link
// stats. A nil topo synthesises the two-node single-bottleneck shape
// so runs without -topo still get a (one-link) weathermap.
func buildTopoView(ts *telemetry.TSCollector, topo *exp.TopoSpec) topoView {
	live := map[string]telemetry.LinkLive{}
	for _, ll := range ts.LinksLive() {
		live[ll.Label] = ll
	}
	if topo == nil {
		v := topoView{Nodes: []string{"src", "dst"}}
		labels := make([]string, 0, len(live))
		for label := range live {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			v.Links = append(v.Links, topoLinkView{From: "src", To: "dst", LinkLive: live[label]})
		}
		return v
	}
	v := topoView{Name: topo.Name, Nodes: topo.Nodes}
	for _, l := range topo.Links {
		lv := topoLinkView{From: l.From, To: l.To}
		if ll, ok := live[l.Label]; ok {
			lv.LinkLive = ll
		} else {
			lv.Label = l.Label
			lv.CapacityMbps = l.CapMbps
		}
		v.Links = append(v.Links, lv)
	}
	return v
}

// topoHandler serves the live topology view as JSON.
func topoHandler(ts *telemetry.TSCollector, topo *exp.TopoSpec) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildTopoView(ts, topo))
	})
}

// serve serves mux on addr in the background for the life of the
// process. Empty addr is a no-op.
func serve(addr string, mux *http.ServeMux) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
		}
	}()
}
