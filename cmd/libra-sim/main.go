// Command libra-sim runs one or more congestion controllers over a
// configurable emulated path and prints per-second throughput/delay.
//
// Usage:
//
//	libra-sim -cca c-libra,cubic -capacity 48 -rtt 40ms -dur 30s
//	libra-sim -cca b-libra -trace lte:driving -loss 0.01
//	libra-sim -cca c-libra -trace lte:walking -trace-out events.jsonl \
//	          -metrics-out metrics.prom -pprof localhost:6060
//	libra-sim -cca c-libra -reps 8 -parallel 4   # seed sweep
//	libra-sim -cca cubic -topo parking-lot       # multi-hop topology
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"libra/internal/cliutil"
	"libra/internal/exp"
	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

func main() {
	var (
		ccas       = flag.String("cca", "c-libra", "comma-separated controllers sharing the bottleneck")
		capMbps    = flag.Float64("capacity", 48, "link capacity in Mbps (ignored with -trace)")
		traceSpec  = flag.String("trace", "", "capacity trace: lte:stationary|walking|driving|tour, or step:P,L1,L2,...")
		rtt        = flag.Duration("rtt", 40*time.Millisecond, "minimum RTT")
		buffer     = flag.Int("buffer", 150000, "droptail buffer in bytes")
		loss       = flag.Float64("loss", 0, "iid stochastic loss probability")
		dur        = flag.Duration("dur", 30*time.Second, "simulated duration")
		seed       = flag.Int64("seed", 1, "random seed")
		reps       = flag.Int("reps", 1, "repeat the run this many times with derived seeds")
		faultSpec  = flag.String("fault", "", "fault plan: a preset name ("+strings.Join(faults.PresetNames(), "|")+") or a JSON plan file")
		topoArg    = flag.String("topo", "", "multi-hop topology: a preset name ("+strings.Join(exp.TopoPresetNames(), "|")+") or a JSON topology file; overrides -capacity/-trace/-rtt/-buffer/-loss")
		profSpec   = flag.String("profiles", "", "comma-separated utility profiles ("+strings.Join(exp.ProfileNames(), "|")+"); one flow per profile, overrides -cca")
		traceOut   = flag.String("trace-out", "", "write a JSONL telemetry event stream to this file")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot to this file after the run")
		metricsFmt = flag.String("metrics-format", "auto", "metrics snapshot format: auto|json|prom")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address")
		httpAddr   = flag.String("http", "", "serve the live flow dashboard (plus pprof and /metrics) on this address")
		parallel   = cliutil.ParallelFlag()
		flightOut  = cliutil.FlightFlag()
		tsOut      = cliutil.TimeSeriesFlag()
	)
	flag.Parse()

	plan, err := faults.Load(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	topo, err := exp.LoadTopo(*topoArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	tracer, closeTracer, err := cliutil.OpenTracer(*traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rc := exp.NewRunContext(*seed)
	rc.Workers = *parallel
	rc.WithDefaults()
	flight, closeFlight, err := cliutil.OpenFlight(*flightOut, rc.Metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Order matters: the flight recorder precedes the anomaly tap so a
	// detector-triggered dump already holds the event that tripped it.
	rc.Tracer = telemetry.Multi(tracer, cliutil.FlightTap(flight), cliutil.AnomalyTap(flight))
	// The time-series collector taps the same stream whenever anything
	// consumes it: a snapshot file, the debug server, or the dashboard.
	var ts *telemetry.TSCollector
	if *tsOut != "" || *pprofAddr != "" || *httpAddr != "" {
		ts = telemetry.NewTSCollector(0, 0)
		rc.Tracer = telemetry.Multi(rc.Tracer, ts)
	}
	health, stopHealth := cliutil.StartHealth(rc.Metrics)
	rc.Health = health
	cliutil.StartPprof(*pprofAddr, rc.Metrics, ts)
	if live := cliutil.StartDashboard(*httpAddr, rc.Metrics, ts, topo); live != nil {
		rc.Tracer = telemetry.Multi(rc.Tracer, live)
		rc.Live = live
		fmt.Printf("live dashboard: http://%s/\n", *httpAddr)
	}

	profs, err := exp.ParseProfiles(*profSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var names, profNames []string
	if len(profs) > 0 {
		for _, p := range profs {
			if _, err := p.Maker(nil); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			names = append(names, p.Name)
			profNames = append(profNames, p.Name)
		}
	} else {
		names = strings.Split(*ccas, ",")
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
			if _, err := exp.MakerFor(names[i], nil, nil); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	// makerAt resolves flow i's controller factory: the profile's
	// (utility-parameterised) maker with -profiles, else the plain CCA.
	makerAt := func(i int) exp.Maker {
		if len(profs) > 0 {
			mk, _ := profs[i].Maker(nil)
			return mk
		}
		mk, _ := exp.MakerFor(names[i], nil, nil)
		return mk
	}

	// One rep = one emulated run through the experiment harness; its
	// capacity trace, fault schedule and controllers all derive from the
	// rep's seed so a -reps sweep explores genuinely different channels.
	// With -topo, cross traffic and ACK paths come from the spec and the
	// report attributes drops and utilisation per hop.
	type flowSummary struct {
		thrMbps, lossRate float64
		rtt               time.Duration
	}
	type repResult struct {
		flows []flowSummary
		util  float64
		topo  *netem.Topology
	}
	runOnce := func(jc *exp.RunContext, verbose bool) repResult {
		s := exp.Scenario{Duration: *dur, Faults: plan, Topo: topo, Profiles: profNames}
		var capacity trace.Trace
		if topo != nil {
			name := topo.Name
			if name == "" {
				name = *topoArg
			}
			s.Name = "topo:" + name
		} else {
			var err error
			capacity, err = buildTrace(*traceSpec, *capMbps, *dur, jc.Seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			s.Name = *traceSpec
			if s.Name == "" {
				s.Name = fmt.Sprintf("wired-%gMbps", *capMbps)
			}
			s.Capacity, s.MinRTT, s.Buffer, s.Loss = capacity, *rtt, *buffer, *loss
		}
		mks := make([]exp.Maker, len(names))
		for i := range names {
			mks[i] = makerAt(i)
		}
		ms := jc.RunFlows(s, mks, nil, time.Second)
		res := repResult{util: ms[0].Util, topo: ms[0].Topo}
		for _, m := range ms {
			if m.Failed {
				fmt.Fprintln(os.Stderr, m.Err)
				os.Exit(1)
			}
			res.flows = append(res.flows, flowSummary{
				thrMbps: m.ThrMbps, lossRate: m.LossRate, rtt: m.Flow.Stats.AvgRTT(),
			})
		}
		if verbose {
			fmt.Printf("%-6s", "t(s)")
			if capacity != nil {
				fmt.Printf(" %-9s", "cap(Mbps)")
			}
			for _, nm := range names {
				fmt.Printf("  %-18s", nm+" thr/delay")
			}
			fmt.Println()
			for t := 0; t < int(*dur/time.Second); t++ {
				fmt.Printf("%-6d", t)
				if capacity != nil {
					fmt.Printf(" %-9.1f", trace.ToMbps(capacity.RateAt(time.Duration(t)*time.Second)))
				}
				for _, m := range ms {
					fmt.Printf("  %6.2f / %-6.0fms ", trace.ToMbps(m.Flow.Stats.Throughput.Rate(t)), m.Flow.Stats.Delay.Mean(t))
				}
				fmt.Println()
			}
			fmt.Println()
		}
		return res
	}

	if *reps <= 1 {
		res := runOnce(rc, true)
		for i, fs := range res.flows {
			fmt.Printf("%-10s avg %.2f Mbps, avg RTT %v, loss %.3f%%\n",
				names[i], fs.thrMbps, fs.rtt.Round(time.Millisecond), fs.lossRate*100)
		}
		fmt.Printf("link utilisation: %.3f\n", res.util)
		if topo != nil {
			fmt.Println("per-link:")
			for _, l := range res.topo.Links() {
				ds := l.DropStats()
				fmt.Printf("  %-8s util %.3f  drops: %d tail, %d channel, %d aqm, %d blackout, %d burst (%d bytes, %d marked)\n",
					l.Label(), res.topo.LinkUtilization(l, *dur),
					ds.Tail, ds.Channel, ds.AQM, ds.Blackout, ds.Burst, ds.Bytes, ds.Marked)
			}
		} else if ds := res.topo.Links()[0].DropStats(); ds.Total() > 0 {
			fmt.Printf("drops: %d tail, %d channel, %d aqm, %d blackout, %d burst (%d bytes)\n",
				ds.Tail, ds.Channel, ds.AQM, ds.Blackout, ds.Burst, ds.Bytes)
		}
	} else {
		results := exp.Sweep(rc, *reps, func(jc *exp.RunContext, _ int) repResult {
			return runOnce(jc, false)
		})
		fmt.Printf("%-6s %-9s", "rep", "util")
		for _, name := range names {
			fmt.Printf("  %-22s", name+" thr/rtt/loss")
		}
		fmt.Println()
		for r, res := range results {
			fmt.Printf("%-6d %-9.3f", r, res.util)
			for _, fs := range res.flows {
				fmt.Printf("  %6.2f / %5v / %.3f%%", fs.thrMbps, fs.rtt.Round(time.Millisecond), fs.lossRate*100)
			}
			fmt.Println()
		}
	}

	if err := closeTracer(); err != nil {
		fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
		os.Exit(1)
	}
	if err := closeFlight(); err != nil {
		fmt.Fprintf(os.Stderr, "flight-out: %v\n", err)
		os.Exit(1)
	}
	stopHealth()
	if ts != nil {
		ts.ExportProm(rc.Metrics)
	}
	if err := cliutil.WriteTimeSeries(ts, *tsOut); err != nil {
		fmt.Fprintf(os.Stderr, "timeseries-out: %v\n", err)
		os.Exit(1)
	}
	if err := cliutil.WriteMetrics(rc.Metrics, *metricsOut, *metricsFmt); err != nil {
		fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
		os.Exit(1)
	}
}

func buildTrace(spec string, capMbps float64, d time.Duration, seed int64) (trace.Trace, error) {
	if spec == "" {
		return trace.Constant(trace.Mbps(capMbps)), nil
	}
	parts := strings.SplitN(spec, ":", 2)
	switch parts[0] {
	case "lte":
		kind := "stationary"
		if len(parts) > 1 {
			kind = parts[1]
		}
		switch kind {
		case "stationary":
			return trace.NewLTE(trace.LTEStationary, d, seed), nil
		case "walking":
			return trace.NewLTE(trace.LTEWalking, d, seed), nil
		case "driving":
			return trace.NewLTE(trace.LTEDriving, d, seed), nil
		case "tour":
			return trace.NewDrivingTour(d, seed), nil
		}
		return nil, fmt.Errorf("unknown lte scenario %q", kind)
	case "step":
		if len(parts) < 2 {
			return nil, fmt.Errorf("step trace needs step:periodSec,L1,L2,...")
		}
		return trace.ParseStep(parts[1])
	}
	return nil, fmt.Errorf("unknown trace spec %q", spec)
}
