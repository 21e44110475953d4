package netem

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/trace"
)

// benchNet builds the fixed end-to-end workload of the netem benchmark
// and its zero-alloc test: four CBR senders overdriving a 96 Mbit/s
// bottleneck, so the run exercises enqueue, tail drop, serialization,
// delivery, and the ACK/loss paths at full packet rate.
func benchNet(seed int64) *Network {
	n := New(Config{
		Capacity:    trace.Constant(trace.Mbps(96)),
		MinRTT:      20 * time.Millisecond,
		BufferBytes: 300_000,
		Seed:        seed,
	})
	for i := 0; i < 4; i++ {
		n.AddFlow(cc.FixedRate{R: trace.Mbps(30)}, 0, 0)
	}
	return n
}

// packets processed by the bottleneck: delivered plus dropped.
func (n *Network) benchPackets() int64 {
	return n.link.DeliveredBytes()/int64(n.cfg.MSS) + n.link.DropStats().Total()
}

// BenchmarkNetemPacketsPerSec reports the end-to-end emulation rate; one
// op is one emulated packet.
func BenchmarkNetemPacketsPerSec(b *testing.B) {
	n := benchNet(7)
	b.ReportAllocs()
	b.ResetTimer()
	horizon := time.Duration(0)
	for n.benchPackets() < int64(b.N) {
		horizon += time.Second
		n.Eng.Run(horizon)
		if n.Eng.Pending() == 0 {
			b.Fatal("simulation drained unexpectedly")
		}
	}
}

// TestNetemSteadyStateAllocs asserts the zero-alloc invariant end to
// end: once the network is warm (queues sized, pools populated, inflight
// windows grown), advancing virtual time must allocate nothing — every
// per-packet event rides the engine's pooled callback path.
func TestNetemSteadyStateAllocs(t *testing.T) {
	n := benchNet(7)
	n.Eng.Run(2 * time.Second) // warm-up: steady-state every slice and pool
	horizon := 2 * time.Second
	avg := testing.AllocsPerRun(5, func() {
		horizon += 500 * time.Millisecond
		n.Eng.Run(horizon)
	})
	if avg != 0 {
		t.Errorf("steady-state netem run allocates %.1f allocs per 500ms slice, want 0", avg)
	}
	if n.benchPackets() == 0 {
		t.Fatal("workload processed no packets")
	}
}
