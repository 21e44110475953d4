package netem

import (
	"os"
	"runtime"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/trace"
)

// benchTopo builds the fixed multi-hop workload: a 3-hop chain of
// 96 Mbit/s links overdriven by four CBR senders, so every hop
// exercises enqueue, tail drop, serialization, and hand-off to the
// next link at full packet rate.
func benchTopo(seed int64) (*Topology, *Route) {
	tp, err := NewTopology(TopologyConfig{
		Nodes: []string{"n0", "n1", "n2", "n3"},
		Links: []LinkSpec{
			{Label: "h0", From: "n0", To: "n1", Capacity: trace.Constant(trace.Mbps(96)), PropDelay: 3 * time.Millisecond, BufferBytes: 300_000},
			{Label: "h1", From: "n1", To: "n2", Capacity: trace.Constant(trace.Mbps(96)), PropDelay: 3 * time.Millisecond, BufferBytes: 300_000},
			{Label: "h2", From: "n2", To: "n3", Capacity: trace.Constant(trace.Mbps(96)), PropDelay: 3 * time.Millisecond, BufferBytes: 300_000},
		},
		Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	r, err := tp.AddRoute("main", []string{"h0", "h1", "h2"}, -1)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 4; i++ {
		tp.AddFlowOn(r, cc.FixedRate{R: trace.Mbps(30)}, 0, 0)
	}
	return tp, r
}

// per-hop packets processed across the whole topology: every hop's
// deliveries plus its drops (one end-to-end packet on an H-hop route
// counts up to H times — the unit is hop traversals, the actual event
// load).
func (tp *Topology) benchPackets() int64 {
	var total int64
	for _, l := range tp.Links() {
		total += l.DeliveredBytes()/int64(cc.DefaultMSS) + l.DropStats().Total()
	}
	return total
}

// TestBenchTopo measures multi-hop emulation throughput (hop traversals
// per wall-clock second and allocs per traversal over a 3-hop chain).
// Only arms under TOPO_BENCH=1 (make bench-topo); with TOPO_BENCH_GUARD
// it enforces a conservative absolute floor and the <1 alloc/packet
// bound, so a multi-hop hot-path regression fails the gate instead of
// just drifting the number.
func TestBenchTopo(t *testing.T) {
	if os.Getenv("TOPO_BENCH") == "" {
		t.Skip("set TOPO_BENCH=1 (make bench-topo) to measure multi-hop throughput")
	}

	run := func() (int64, time.Duration) {
		tp, _ := benchTopo(7)
		start := time.Now()
		tp.Run(10 * time.Second)
		return tp.benchPackets(), time.Since(start)
	}
	run() // warm-up: page in code paths
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pkts, wall := run()
	runtime.ReadMemStats(&m1)
	pktsPerSec := float64(pkts) / wall.Seconds()
	allocsPerPkt := float64(m1.Mallocs-m0.Mallocs) / float64(pkts)

	t.Logf("topo: %.0f hop-packets/sec (%.4f allocs/packet) over 3 hops", pktsPerSec, allocsPerPkt)

	if os.Getenv("TOPO_BENCH_GUARD") != "" {
		if allocsPerPkt >= 1 {
			t.Errorf("multi-hop steady path allocates %.2f allocs/packet, want < 1", allocsPerPkt)
		}
		// Conservative floor: a healthy chain moves hundreds of thousands
		// of hop traversals per second; 100K trips only on a real
		// regression (or a badly oversubscribed CI box).
		if pktsPerSec < 100_000 {
			t.Errorf("multi-hop throughput %.0f packets/sec under the 100K floor", pktsPerSec)
		}
	}
}
