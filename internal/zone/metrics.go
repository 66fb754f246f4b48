package zone

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// sweepMetrics is the package's sweep instrumentation, attached by
// RegisterMetrics through an atomic pointer. Detached (the default, and
// the state every benchmark runs in) a sweep pays one pointer load; all
// counting happens once per Sweep call — the batch boundary — never per
// row: hits tally in a local on the emitting goroutine and flush as one
// Add, and worker busy time is one clock read per sweep.
type sweepMetrics struct {
	sweeps   *telemetry.Counter
	probes   *telemetry.Counter
	groups   *telemetry.Counter
	hits     *telemetry.Counter
	errors   *telemetry.Counter
	duration *telemetry.Histogram

	// busyNanos accumulates the wall-clock time sweeps spent driving their
	// sweeper (a sweep is its own single worker). Exposed in seconds as
	// zone_worker_busy_seconds_total.
	busyNanos atomic.Int64
}

var sweepMet atomic.Pointer[sweepMetrics]

// RegisterMetrics attaches the package's sweep counters to r. Sweeps
// report probes answered, zone groups swept, hits emitted, worker busy
// time, and a per-sweep latency histogram; the I/O a sweep drives is
// attributed per pool by the pool_* families (a process-global sweep
// counter could not split io between concurrent sweeps honestly).
// Calling again rebinds to a new registry.
func RegisterMetrics(r *telemetry.Registry) {
	m := &sweepMetrics{
		sweeps:   r.NewCounter("zone_sweeps_total", "batched zone sweeps run"),
		probes:   r.NewCounter("zone_probes_total", "probes answered by sweeps"),
		groups:   r.NewCounter("zone_groups_total", "zone groups swept"),
		hits:     r.NewCounter("zone_hits_total", "neighbour rows emitted by sweeps"),
		errors:   r.NewCounter("zone_sweep_errors_total", "sweeps that returned an error (cancellation included)"),
		duration: r.NewHistogram("zone_sweep_seconds", "wall time of one Sweep call", nil),
	}
	r.NewCounterFunc("zone_worker_busy_seconds_total",
		"wall-clock time sweep workers spent resident",
		func() float64 { return float64(m.busyNanos.Load()) / 1e9 })
	sweepMet.Store(m)
}

// addBusy credits worker residency; nil-safe.
func (m *sweepMetrics) addBusy(d time.Duration) {
	if m != nil {
		m.busyNanos.Add(int64(d))
	}
}
