// Command analyzecheck is the CI gate for the trace→analytics
// pipeline: it reads a `libra-trace analyze -json` report on stdin
// and exits non-zero unless the report parses, carries events, and
// covers flows 0..n-1 with every flow named from its flow span and
// completing control cycles.
//
// Usage (see scripts/check.sh and `make analyze`):
//
//	libra-sim -cca c-libra,c-libra -dur 5s -trace-out ev.jsonl
//	libra-trace analyze -json ev.jsonl | go run ./scripts/analyzecheck -flows 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"libra/internal/analyze"
)

func main() {
	flows := flag.Int("flows", 2, "number of flows the report must cover (ids 0..n-1)")
	flag.Parse()

	var rep analyze.Report
	dec := json.NewDecoder(os.Stdin)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		fatal(fmt.Errorf("report does not parse: %w", err))
	}
	if rep.Events == 0 {
		fatal(fmt.Errorf("report carries no events"))
	}
	if len(rep.Flows) != *flows {
		fatal(fmt.Errorf("report covers %d flows, want %d", len(rep.Flows), *flows))
	}
	for i, f := range rep.Flows {
		if f.ID != i {
			fatal(fmt.Errorf("flow at index %d has id %d, want contiguous ids 0..%d", i, f.ID, *flows-1))
		}
		if f.Name == "" {
			fatal(fmt.Errorf("flow %d carries no name (its flow:<cca> span did not name it)", f.ID))
		}
		if f.Cycles == 0 || f.Decided == 0 {
			fatal(fmt.Errorf("flow %d completed no control cycles (cycles=%d decided=%d)", f.ID, f.Cycles, f.Decided))
		}
		if f.RateMbps.N == 0 {
			fatal(fmt.Errorf("flow %d has no rate samples", f.ID))
		}
	}
	fmt.Printf("analyzecheck: ok — %d events, %d flows, all named and with completed cycles\n", rep.Events, len(rep.Flows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyzecheck:", err)
	os.Exit(1)
}
