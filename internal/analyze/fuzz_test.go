package analyze

import (
	"bytes"
	"io"
	"testing"

	"libra/internal/telemetry"
	"libra/internal/telemetry/spans"
)

// FuzzReadEach decodes a stream and feeds every event into each reader
// of recorded streams: the Analyzer, the Detector, the time-series
// collector, the span builder and a flight recorder with no dump
// directory. None may panic on anything the decoder hands out, and each
// must still report. A decode error stops the read; the events before it
// stay fed.
func FuzzReadEach(f *testing.F) {
	// Seeds stay a few lines long: the fuzzer minimizes every input that
	// finds new coverage, and a long seed makes that take most of a
	// short fuzz pass.
	f.Add([]byte(`{"v":3,"t":1000,"type":"enqueue","flow":1,"bytes":1500}`))
	f.Add([]byte(`{"t":0,"type":"profile","flow":0,"name":"bulk"}
{"t":0,"type":"span","flow":0,"reason":"begin","name":"flow:c-libra"}
{"t":1,"type":"stage","flow":0,"stage":"explore","rate":1250000}
{"t":2,"type":"early_exit","flow":0,"reason":"th1"}
{"t":5,"type":"enqueue","flow":0,"link":"h0","bytes":1500,"queue":3000}
{"t":6,"type":"drop","flow":0,"link":"h1","reason":"tail","bytes":1500}
{"t":7,"type":"queue","flow":-1,"queue":3000,"rate":2500000}
{"t":8,"type":"fault","flow":-1,"reason":"blackout_start"}
{"t":9,"type":"decision","flow":0,"winner":"x_cl","x_prev":1e6,"x_cl":9e5,"u_cl":2,"rtt":4e7,"thr":8,"grad":0.01}
{"t":10,"type":"no_ack","flow":0,"reason":"decay","x_prev":1e6}
{"t":11,"type":"no_ack","flow":0,"reason":"recover","x_prev":1e5}
{"t":12,"type":"action","flow":0,"rate":1e6,"action":2}
{"t":13,"type":"anomaly","flow":0,"reason":"no_ack_streak"}
{"t":20,"type":"span","flow":-1,"reason":"end","name":"scenario:a"}
{"t":3,"type":"stage","flow":0,"stage":"eval-1"}`))
	f.Fuzz(func(t *testing.T, stream []byte) {
		an := New(Config{})
		det := NewDetector(nil)
		ts := telemetry.NewTSCollector(0, 0)
		b := spans.NewBuilder()
		fl := telemetry.NewFlightRecorder(telemetry.FlightConfig{PerFlow: 4})
		_ = telemetry.ReadEach(bytes.NewReader(stream), func(e *telemetry.Event) {
			an.Emit(e)
			det.Emit(e)
			ts.Emit(e)
			b.Add(e)
			fl.Emit(e)
		})
		an.Finalize()
		det.Finalize()
		rep := an.Report()
		if err := rep.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
		// A non-finite value in a foreign stream is a JSON encoding
		// error, not a crash, so these errors are dropped.
		_ = rep.WriteJSON(io.Discard)
		_ = ts.WriteJSON(io.Discard)
		b.Finish()
		_, _ = b.WriteTo(io.Discard)
	})
}

// FuzzParseSLOs fuzzes the -slo flag's parser: every spec it accepts
// prints, through String, a form that parses back to the same spec.
func FuzzParseSLOs(f *testing.F) {
	f.Add("bulk:mean_thr_mbps>=5,low-latency:p95_rtt_ms<=100")
	f.Add(" x : p99_rtt_ms <= 1.5 ")
	f.Add("x:mean_rtt_ms<=30,,")
	f.Add("x:p95_rtt_ms<=NaN")
	f.Fuzz(func(t *testing.T, in string) {
		specs, err := ParseSLOs(in)
		if err != nil {
			return
		}
		for _, s := range specs {
			back, err := ParseSLO(s.String())
			if err != nil || back != s {
				t.Fatalf("%+v prints %q, which parses to %+v, %v", s, s.String(), back, err)
			}
		}
	})
}
