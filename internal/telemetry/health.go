package telemetry

import (
	"runtime"
	"sync"
	"time"
)

// ProgressSource exposes a running engine's progress counters for
// cross-goroutine health sampling. Implementations must make Progress
// safe to call while the engine runs (the sim engine publishes its
// counters through atomics on an amortized schedule, so readings may
// lag the hot path by a dispatch batch).
type ProgressSource interface {
	// Progress returns virtual time in nanoseconds, total dispatched
	// events, and currently pending timers.
	Progress() (simNs, events, pending int64)
}

// Health samples runtime self-health — how fast virtual time advances
// against wall time, engine event throughput, pending timer load, and
// Go runtime heap/GC/goroutine stats — into gauges on a metrics
// registry, for the live dashboard and Prometheus export.
//
// Engines register while running and unregister when done; totals from
// retired engines are accumulated so ratios stay monotonic across a
// sweep's worker churn. Health gauges are wall-clock derived and are
// deliberately excluded from the framework's determinism guarantees.
type Health struct {
	mu                  sync.Mutex
	srcs                map[ProgressSource]struct{}
	retired             struct{ sim, events int64 }
	lastSim, lastEvents int64
	lastWall            time.Time

	simSeconds *Gauge
	ratio      *Gauge
	eventsSec  *Gauge
	pending    *Gauge
	heapBytes  *Gauge
	gcTotal    *Gauge
	goroutines *Gauge
}

// NewHealth returns a sampler writing into reg.
func NewHealth(reg *Registry) *Health {
	return &Health{
		srcs: map[ProgressSource]struct{}{},
		simSeconds: reg.Gauge("libra_health_sim_time_seconds",
			"Total virtual time simulated across all engines."),
		ratio: reg.Gauge("libra_health_sim_wall_ratio",
			"Virtual seconds simulated per wall second since the last sample."),
		eventsSec: reg.Gauge("libra_health_events_per_second",
			"Engine events dispatched per wall second since the last sample."),
		pending: reg.Gauge("libra_health_pending_timers",
			"Timers currently pending across all registered engines."),
		heapBytes: reg.Gauge("libra_health_heap_bytes",
			"Go heap in use (runtime.MemStats.HeapAlloc)."),
		gcTotal: reg.Gauge("libra_health_gc_total",
			"Completed garbage-collection cycles."),
		goroutines: reg.Gauge("libra_health_goroutines",
			"Live goroutines."),
	}
}

// Register adds a running engine to the sampled set.
func (h *Health) Register(s ProgressSource) {
	if h == nil || s == nil {
		return
	}
	h.mu.Lock()
	h.srcs[s] = struct{}{}
	h.mu.Unlock()
}

// Unregister removes an engine, folding its final totals into the
// retired accumulators so sim-time and event totals never regress.
func (h *Health) Unregister(s ProgressSource) {
	if h == nil || s == nil {
		return
	}
	sim, events, _ := s.Progress()
	h.mu.Lock()
	if _, ok := h.srcs[s]; ok {
		delete(h.srcs, s)
		h.retired.sim += sim
		h.retired.events += events
	}
	h.mu.Unlock()
}

// Sample takes one reading: per-interval rates against the previous
// Sample call, absolute totals, and runtime stats.
func (h *Health) Sample() {
	now := time.Now()
	h.mu.Lock()
	sim, events, pending := h.retired.sim, h.retired.events, int64(0)
	for s := range h.srcs {
		sn, en, pn := s.Progress()
		sim += sn
		events += en
		pending += pn
	}
	if !h.lastWall.IsZero() {
		if wall := now.Sub(h.lastWall).Seconds(); wall > 0 {
			h.ratio.Set(float64(sim-h.lastSim) / 1e9 / wall)
			h.eventsSec.Set(float64(events-h.lastEvents) / wall)
		}
	}
	h.lastSim, h.lastEvents, h.lastWall = sim, events, now
	h.mu.Unlock()

	h.simSeconds.Set(float64(sim) / 1e9)
	h.pending.Set(float64(pending))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.heapBytes.Set(float64(ms.HeapAlloc))
	h.gcTotal.Set(float64(ms.NumGC))
	h.goroutines.Set(float64(runtime.NumGoroutine()))
}

// Start samples every interval on a background goroutine until the
// returned stop function is called; stop takes a final sample before
// returning so short runs still publish totals.
func (h *Health) Start(every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	h.Sample()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.Sample()
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
			h.Sample()
		})
	}
}
