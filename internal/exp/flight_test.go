package exp

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"libra/internal/analyze"
	"libra/internal/netem/faults"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// runFlightSweep drives a 3-job blackout sweep with a flight recorder
// and an anomaly Detector tap on the parent context, composed as the
// operator rig composes them, and returns the dump directory contents.
func runFlightSweep(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	plan, err := faults.Load("blackout")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fl := telemetry.NewFlightRecorder(telemetry.FlightConfig{Dir: dir})
	rc := NewRunContext(11)
	rc.Workers = workers
	// The flight recorder sits at the parent level: it sees the sweep's
	// ordered replay, never the live worker goroutines. The anomaly tap
	// follows it, so a dump already holds the event that tripped it.
	rc.Tracer = telemetry.Multi(fl, analyze.NewDetector(fl.TriggerDump))

	s := Scenario{
		Name:     "blackout-det",
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   30 * time.Millisecond,
		Buffer:   150_000,
		Duration: 12 * time.Second,
		Faults:   plan,
	}
	Sweep(rc, 3, func(jc *RunContext, i int) Metrics {
		return jc.RunFlow(s, untrained("c-libra"), 0)
	})
	if err := fl.Err(); err != nil {
		t.Fatalf("flight recorder error: %v", err)
	}
	if fl.Dumps() == 0 {
		t.Fatal("blackout sweep triggered no flight dumps")
	}

	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestFlightDumpsDeterministicAcrossWorkers is the flight-recorder
// determinism contract: a faulted sweep must produce byte-identical
// dump files at any worker count, because the recorder consumes the
// ordered replay rather than the racy live streams.
func TestFlightDumpsDeterministicAcrossWorkers(t *testing.T) {
	serial := runFlightSweep(t, 1)
	parallel := runFlightSweep(t, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("dump counts differ: %d files at workers=1, %d at workers=4", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Errorf("workers=4 run missing dump %s", name)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("dump %s differs between workers=1 and workers=4", name)
		}
	}
}

// TestFlightDumpsCarryOutageForensics opens one dump from a faulted
// run and checks it holds the story an operator needs: events leading
// up to the incident, the fault window, and a self-describing trigger.
func TestFlightDumpsCarryOutageForensics(t *testing.T) {
	dumps := runFlightSweep(t, 2)
	var checked bool
	for name, raw := range dumps {
		f, err := os.CreateTemp(t.TempDir(), "dump")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(raw); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		evs, err := telemetry.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: not a decodable event stream: %v", name, err)
		}
		if len(evs) < 2 {
			t.Fatalf("%s: only %d events retained", name, len(evs))
		}
		kinds := map[telemetry.Type]bool{}
		for i := range evs {
			kinds[evs[i].Type] = true
			if evs[i].V != telemetry.SchemaVersion {
				t.Fatalf("%s: event %d carries schema v%d, want v%d", name, i, evs[i].V, telemetry.SchemaVersion)
			}
		}
		if kinds[telemetry.TypeNoAck] || kinds[telemetry.TypeAnomaly] {
			checked = true
		}
	}
	if !checked {
		t.Fatal("no dump contains a no_ack or anomaly event")
	}
}
