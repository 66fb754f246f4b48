package fed

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// Both sides of the federation keep their counters as plain atomics on
// the hot path and expose them as scrape-time Func metrics, following
// the telemetry contract: attaching a registry adds no bookkeeping to
// the sweep itself. The shared fed_transfer_bytes_total{kind} family
// is the exact wire accounting TransferStats summarises — every
// byte is counted by the countingReader/Writer wrapping the HTTP
// bodies, not estimated from struct sizes.

// workerCounters is a Worker's hot-path state, exported via /stats and
// /metrics.
type workerCounters struct {
	sweeps, probes, hits              atomic.Int64
	exchangeRowsIn, exchangeRowsOut   atomic.Int64
	probeBytesIn, hitBytesOut         atomic.Int64
	exchangeBytesIn, exchangeBytesOut atomic.Int64
}

// registerWorkerMetrics attaches the fed_worker_* and
// fed_transfer_bytes_total families for one worker.
func registerWorkerMetrics(r *telemetry.Registry, w *Worker) {
	r.NewGaugeFunc("fed_worker_ready",
		"1 once the buffer-zone exchange finished and the zone table is live",
		func() float64 {
			if w.Ready() {
				return 1
			}
			return 0
		})
	r.NewGaugeFunc("fed_worker_zone_rows",
		"rows in this stripe's zone table after the buffer-zone exchange",
		func() float64 { return float64(w.zoneRows.Load()) })
	r.NewGaugeFunc("fed_worker_zones",
		"zones owned by this stripe",
		func() float64 {
			if !w.ownedOK {
				return 0
			}
			return float64(w.maxZone - w.minZone + 1)
		})
	r.NewCounterFunc("fed_worker_sweeps_total",
		"sweep RPCs served", func() float64 { return float64(w.ctr.sweeps.Load()) })
	r.NewCounterFunc("fed_worker_probes_total",
		"probes received across sweep RPCs", func() float64 { return float64(w.ctr.probes.Load()) })
	r.NewCounterFunc("fed_worker_hits_total",
		"hits streamed back across sweep RPCs", func() float64 { return float64(w.ctr.hits.Load()) })

	rows := r.NewCounterFuncVec("fed_worker_exchange_rows_total",
		"buffer-zone rows exchanged with neighbouring stripes", "dir")
	rows.Attach(func() float64 { return float64(w.ctr.exchangeRowsIn.Load()) }, "in")
	rows.Attach(func() float64 { return float64(w.ctr.exchangeRowsOut.Load()) }, "out")

	bytes := r.NewCounterFuncVec("fed_transfer_bytes_total",
		"exact wire bytes moved, by traffic kind", "kind")
	bytes.Attach(func() float64 { return float64(w.ctr.probeBytesIn.Load()) }, "probes_in")
	bytes.Attach(func() float64 { return float64(w.ctr.hitBytesOut.Load()) }, "hits_out")
	bytes.Attach(func() float64 { return float64(w.ctr.exchangeBytesIn.Load()) }, "exchange_in")
	bytes.Attach(func() float64 { return float64(w.ctr.exchangeBytesOut.Load()) }, "exchange_out")
}

// coordCounters is the Coordinator's hot-path state.
type coordCounters struct {
	sweeps, probes, hits       atomic.Int64
	retries, failovers, hedges atomic.Int64
	probeBytesOut, hitBytesIn  atomic.Int64
	scatter                    []atomic.Int64 // RPC fan-outs per stripe
	pruned                     []atomic.Int64 // batches a stripe was pruned from
}

// registerCoordMetrics attaches the coordinator-side fed_* families.
func registerCoordMetrics(r *telemetry.Registry, c *Coordinator) {
	r.NewCounterFunc("fed_sweeps_total",
		"federated sweep batches executed", func() float64 { return float64(c.ctr.sweeps.Load()) })
	r.NewCounterFunc("fed_probes_total",
		"probes scattered (per stripe reached)", func() float64 { return float64(c.ctr.probes.Load()) })
	r.NewCounterFunc("fed_hits_total",
		"hits merged from worker streams", func() float64 { return float64(c.ctr.hits.Load()) })
	r.NewCounterFunc("fed_retries_total",
		"sweep RPC attempts retried after a transient fault",
		func() float64 { return float64(c.ctr.retries.Load()) })
	r.NewCounterFunc("fed_failovers_total",
		"sweep RPC attempts moved to a replica endpoint",
		func() float64 { return float64(c.ctr.failovers.Load()) })
	r.NewCounterFunc("fed_hedges_total",
		"hedge requests launched against slow primaries",
		func() float64 { return float64(c.ctr.hedges.Load()) })

	scatter := r.NewCounterFuncVec("fed_scatter_total",
		"sweep RPCs scattered, by stripe", "stripe")
	pruned := r.NewCounterFuncVec("fed_pruned_total",
		"sweep batches a stripe was partition-pruned from, by stripe", "stripe")
	for i := range c.topo.Stripes {
		i := i
		scatter.Attach(func() float64 { return float64(c.ctr.scatter[i].Load()) }, c.topo.Stripes[i].Name)
		pruned.Attach(func() float64 { return float64(c.ctr.pruned[i].Load()) }, c.topo.Stripes[i].Name)
	}

	bytes := r.NewCounterFuncVec("fed_transfer_bytes_total",
		"exact wire bytes moved, by traffic kind", "kind")
	bytes.Attach(func() float64 { return float64(c.ctr.probeBytesOut.Load()) }, "probes_out")
	bytes.Attach(func() float64 { return float64(c.ctr.hitBytesIn.Load()) }, "hits_in")
}
