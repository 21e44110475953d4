package sim

import (
	"testing"
	"time"
)

// TestProgressExactAfterRun: once Run hands control back, the published
// counters must be exact — every dispatched event, the final clock, and
// the surviving timers — not a stride-rounded approximation.
func TestProgressExactAfterRun(t *testing.T) {
	e := New()
	const n = 3000 // spans several progressStride batches
	for i := 0; i < n; i++ {
		e.AtCall(time.Duration(i)*time.Microsecond, nop, nil)
	}
	e.AtCall(time.Hour, nop, nil) // stays pending past the horizon
	const until = 10 * time.Millisecond
	e.Run(until)

	simNs, events, pending := e.Progress()
	if events != n {
		t.Errorf("Progress events = %d, want %d", events, n)
	}
	if simNs != int64(until) {
		t.Errorf("Progress simNs = %d, want %d (the Run horizon)", simNs, int64(until))
	}
	if pending != 1 {
		t.Errorf("Progress pending = %d, want the one timer past the horizon", pending)
	}
}

// TestProgressPublishedMidRun: a reader polling from another vantage
// point mid-dispatch must see counters that lag the true dispatch count
// by at most one stride — the amortized-publication contract.
func TestProgressPublishedMidRun(t *testing.T) {
	e := New()
	const n = progressStride*3 + 17
	var observed []int64
	for i := 0; i < n; i++ {
		e.AtCall(time.Duration(i)*time.Microsecond, func(arg any) {
			if arg.(int)%progressStride == 0 {
				_, events, _ := e.Progress()
				observed = append(observed, events)
			}
		}, i)
	}
	e.Run(time.Second)
	if len(observed) == 0 {
		t.Fatal("no mid-run observations")
	}
	for k, ev := range observed {
		dispatchedSoFar := int64(k*progressStride + 1)
		if lag := dispatchedSoFar - ev; lag < 0 || lag > progressStride {
			t.Errorf("observation %d: published %d events with %d dispatched (lag %d, want 0..%d)",
				k, ev, dispatchedSoFar, lag, progressStride)
		}
	}
}
