package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// bufferEvent is the i-th event of a synthetic stream: the types, flows
// and fields vary so a replayed slot read from the wrong position or
// page shows in the encoded bytes.
func bufferEvent(i int) Event {
	types := []Type{TypeEnqueue, TypeQueue, TypeDecision, TypeDrop, TypeStage}
	return Event{T: int64(i) * 1000, Type: types[i%len(types)], Flow: i % 7, Seq: int64(i),
		Bytes: int64(1000 + i%13), Queue: int64(i * 3), Rate: float64(i) / 8, Link: "bn",
		Stage: "explore", Reason: fmt.Sprint("r", i%3)}
}

// collector keeps a copy of every event it receives.
type collector struct{ evs []Event }

func (c *collector) Enabled() bool { return true }
func (c *collector) Emit(e *Event) { c.evs = append(c.evs, *e) }

// counter counts events and keeps nothing.
type counter struct{ n int }

func (c *counter) Enabled() bool { return true }
func (c *counter) Emit(*Event)   { c.n++ }

// Replay must equal recording directly, byte for byte, for streams
// that end before, at and after every page boundary. One buffer serves
// every case in turn, so later cases fill pages the earlier ones
// handed back.
func TestBufferReplayAcrossPages(t *testing.T) {
	var buf Buffer
	for _, n := range []int{0, 1, pageEvents - 1, pageEvents, pageEvents + 1, 3*pageEvents + 7} {
		var direct, replayed bytes.Buffer
		rec := NewRecorder(&direct)
		for i := 0; i < n; i++ {
			ev := bufferEvent(i)
			rec.Emit(&ev)
			buf.Emit(&ev)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != n {
			t.Fatalf("n=%d: buffered %d events", n, buf.Len())
		}
		rec2 := NewRecorder(&replayed)
		buf.ReplayTo(rec2)
		if err := rec2.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), replayed.Bytes()) {
			t.Fatalf("n=%d: replayed stream differs from direct recording (%d vs %d bytes)",
				n, replayed.Len(), direct.Len())
		}
		buf.Reset()
		if buf.Len() != 0 {
			t.Fatalf("n=%d: Len %d after Reset", n, buf.Len())
		}
	}
}

// A buffer filled after another's Reset takes the recycled pages, whose
// slots past its own events still hold the first user's, and replays
// only its own events.
func TestBufferRecycledPagesHoldNoStaleEvents(t *testing.T) {
	var first Buffer
	for i := 0; i < 2*pageEvents+5; i++ {
		ev := bufferEvent(i)
		ev.Name = "first"
		first.Emit(&ev)
	}
	used := map[*page]bool{}
	for _, p := range first.pages {
		used[p] = true
	}
	first.Reset()

	var second Buffer
	n := pageEvents + 3
	for i := 0; i < n; i++ {
		ev := bufferEvent(i)
		ev.Name = "second"
		second.Emit(&ev)
	}
	recycled := 0
	for _, p := range second.pages {
		if used[p] {
			recycled++
		}
	}
	// The race detector makes sync.Pool drop items on purpose.
	if recycled == 0 && !raceEnabled {
		t.Fatal("second buffer took no page the first one handed back")
	}
	var got collector
	second.ReplayTo(&got)
	if len(got.evs) != n {
		t.Fatalf("replayed %d events, want %d", len(got.evs), n)
	}
	for i, ev := range got.evs {
		want := bufferEvent(i)
		want.Name = "second"
		if ev != want {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
}

// Buffers on several goroutines draw on the one pool at once, as a
// sweep's workers do: each replay still holds exactly its own events.
func TestBufferPagesSharedAcrossGoroutines(t *testing.T) {
	const workers, rounds = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf Buffer
			for r := 0; r < rounds; r++ {
				n := (w+1)*pageEvents/2 + r
				for i := 0; i < n; i++ {
					ev := bufferEvent(i)
					ev.Flow = w
					buf.Emit(&ev)
				}
				var got collector
				buf.ReplayTo(&got)
				buf.Reset()
				if len(got.evs) != n {
					t.Errorf("worker %d round %d: replayed %d events, want %d", w, r, len(got.evs), n)
					return
				}
				for i, ev := range got.evs {
					if ev.Flow != w || ev.Seq != int64(i) {
						t.Errorf("worker %d round %d: event %d is flow %d seq %d", w, r, i, ev.Flow, ev.Seq)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// One reused buffer cycling through three pages of events, a replay and
// a Reset allocates nothing once warm: its pages come back from the
// pool and its page list keeps its capacity.
func TestBufferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	var (
		buf  Buffer
		sink counter
	)
	ev := bufferEvent(1)
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 3*pageEvents; i++ {
			ev.T = int64(i)
			buf.Emit(&ev)
		}
		buf.ReplayTo(&sink)
		buf.Reset()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per Emit/ReplayTo/Reset cycle, want 0", allocs)
	}
	if sink.n != 21*3*pageEvents {
		t.Fatalf("sink saw %d events, want %d", sink.n, 21*3*pageEvents)
	}
}
