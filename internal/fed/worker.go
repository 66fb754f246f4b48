package fed

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/astro"
	"repro/internal/faultinject"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

// Fault-injection sites on the federation's RPC paths. The chaos tests
// arm these to prove the coordinator's retry/failover/hedge behaviour;
// production binaries never arm them, so Eval is a single atomic load.
const (
	// SiteWorkerSweep fails a /sweep before any hit is streamed (a
	// refused or dropped connection, as the coordinator sees it).
	SiteWorkerSweep = "fed.worker.sweep"
	// SiteWorkerStream kills the response mid-stream, after hits have
	// already been flushed — the "worker died mid-query" case.
	SiteWorkerStream = "fed.worker.stream"
	// SiteWorkerSlow sleeps (ErrNone + Latency) at /sweep start,
	// modelling a slow worker for the hedging path.
	SiteWorkerSlow = "fed.worker.slow"
	// SiteWorkerExchange fails an /exchange fetch during boot sync.
	SiteWorkerExchange = "fed.worker.exchange"
	// SiteCoordRequest fails a coordinator-side RPC attempt before it
	// is sent.
	SiteCoordRequest = "fed.coord.request"
)

// streamFlushEvery bounds how many hit lines buffer before a flush, so
// a dying worker leaves the coordinator a meaningful partial stream
// (which it must discard — that is what the chaos test proves).
const streamFlushEvery = 128

// WorkerOptions tunes a stripe worker.
type WorkerOptions struct {
	// SweepWorkers is the zone.Sweep parallelism inside this stripe
	// (0 = GOMAXPROCS-derived default).
	SweepWorkers int
	// PoolFrames / PoolShards size the stripe's private buffer pool.
	PoolFrames, PoolShards int
	// Client performs the boot-time /exchange pulls (nil = a default
	// with sane timeouts).
	Client *http.Client
	// Logger receives boot/sync progress (nil = slog.Default()).
	Logger *slog.Logger
}

// A Worker owns one declination stripe: its own sqldb, the stripe's
// zone table (built at boot from a raw catalog slice plus the
// buffer-zone exchange), and the HTTP surface the coordinator calls.
// Create it with NewWorker, start serving (so peers can reach
// /exchange), then run Sync to pull boundary zones and build the zone
// table; /healthz flips to 200 and /sweep starts answering once Sync
// returns.
type Worker struct {
	topo  Topology
	index int
	name  string

	db           *sqldb.DB
	zoneT        *sqldb.Table
	sweepWorkers int
	client       *http.Client
	logger       *slog.Logger

	raw     []sky.Galaxy // region ∩ slice, pre-exchange; /exchange serves these
	rawZone []int        // zone id per raw row

	minZone, maxZone int // owned zone range (inclusive)
	ownedOK          bool

	ready    atomic.Bool
	draining atomic.Bool
	zoneRows atomic.Int64
	ctr      workerCounters
	reg      atomic.Pointer[telemetry.Registry]
}

// NewWorker builds the stripe worker for topo.Stripes[index] from the
// full catalog (each worker cuts its own slice; a deployment that
// ships per-site files slices before the call — the cut is
// deterministic either way).
func NewWorker(topo Topology, index int, cat *sky.Catalog, opts WorkerOptions) (*Worker, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if index < 0 || index >= len(topo.Stripes) {
		return nil, fmt.Errorf("fed: stripe index %d out of range [0, %d)", index, len(topo.Stripes))
	}
	w := &Worker{
		topo:         topo.Clone(),
		index:        index,
		name:         topo.Stripes[index].Name,
		sweepWorkers: opts.SweepWorkers,
		client:       opts.Client,
		logger:       opts.Logger,
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.logger == nil {
		w.logger = slog.Default()
	}
	h := w.topo.Height()
	for _, g := range cat.Galaxies {
		if !topo.Region.Contains(g.Ra, g.Dec) || !topo.SliceContains(index, g.Dec) {
			continue
		}
		w.raw = append(w.raw, g)
		w.rawZone = append(w.rawZone, astro.ZoneID(g.Dec, h))
	}
	w.minZone, w.maxZone, w.ownedOK = w.topo.OwnedZones(index)
	w.db = sqldb.OpenPool(sqldb.PoolConfig{Frames: opts.PoolFrames, Shards: opts.PoolShards})
	return w, nil
}

// Name returns the stripe name.
func (w *Worker) Name() string { return w.name }

// Index returns the stripe index.
func (w *Worker) Index() int { return w.index }

// DB exposes the stripe's database (tests and stats).
func (w *Worker) DB() *sqldb.DB { return w.db }

// Ready reports whether Sync has completed and /sweep is serving.
func (w *Worker) Ready() bool { return w.ready.Load() }

// SetDraining flips /healthz to 503 ahead of shutdown.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// SetEndpoints rewires stripe i's endpoint list in this worker's
// private topology copy — how tests and daemons point workers at each
// other after ports are known.
func (w *Worker) SetEndpoints(i int, endpoints ...string) {
	w.topo.Stripes[i].Endpoints = append([]string(nil), endpoints...)
}

// EnableMetrics attaches the worker's fed_worker_* families plus the
// underlying database's sql_*/pool metrics to reg; /metrics starts
// serving it.
func (w *Worker) EnableMetrics(reg *telemetry.Registry) {
	registerWorkerMetrics(reg, w)
	w.db.EnableMetrics(reg, w.name)
	w.reg.Store(reg)
}

// Sync runs the buffer-zone exchange and builds the stripe's zone
// table: for every owned zone that straddles a neighbouring slice it
// pulls that neighbour's rows via /exchange (retrying until ctx
// expires — peers may still be booting), drops its own raw rows in
// zones a neighbour owns, and bulk-loads the (zone, ra)-clustered
// columnar zone table. After Sync the stripe holds exactly the
// region's rows for its owned zone range.
func (w *Worker) Sync(ctx context.Context) error {
	gals := make([]sky.Galaxy, 0, len(w.raw))
	for i, g := range w.raw {
		if w.ownedOK && w.rawZone[i] >= w.minZone && w.rawZone[i] <= w.maxZone {
			gals = append(gals, g)
		}
	}
	if w.ownedOK {
		h := w.topo.Height()
		for z := w.minZone; z <= w.maxZone; z++ {
			zlo, zhi := astro.ZoneDecBounds(z, h)
			for j := range w.topo.Stripes {
				if j == w.index || !w.sliceTouchesZone(j, zlo, zhi) {
					continue
				}
				rows, err := w.fetchExchange(ctx, j, z)
				if err != nil {
					return fmt.Errorf("fed: %s: exchange zone %d from %s: %w",
						w.name, z, w.topo.Stripes[j].Name, err)
				}
				gals = append(gals, rows...)
			}
		}
	}
	zt, err := zone.InstallZoneTableColumnar(w.db, "zone", gals, w.topo.Height())
	if err != nil {
		return fmt.Errorf("fed: %s: install zone table: %w", w.name, err)
	}
	w.zoneT = zt
	w.zoneRows.Store(int64(len(gals)))
	w.ready.Store(true)
	w.logger.Info("fed worker ready", "stripe", w.name,
		"zones", fmt.Sprintf("%d..%d", w.minZone, w.maxZone),
		"rows", len(gals), "rawRows", len(w.raw))
	return nil
}

// sliceTouchesZone reports whether stripe j's raw slice can hold rows
// of a zone spanning [zlo, zhi).
func (w *Worker) sliceTouchesZone(j int, zlo, zhi float64) bool {
	s := w.topo.Stripes[j]
	last := j == len(w.topo.Stripes)-1
	if zhi <= s.MinDec {
		return false
	}
	if zlo < s.MaxDec {
		return true
	}
	// A zone starting exactly at the last stripe's (inclusive) upper
	// edge can hold the row at dec == MaxDec.
	return last && zlo <= s.MaxDec
}

// fetchExchange pulls one zone's rows from stripe j, cycling its
// endpoints with backoff until ctx gives up — boot order between
// workers is deliberately unconstrained.
func (w *Worker) fetchExchange(ctx context.Context, j, z int) ([]sky.Galaxy, error) {
	endpoints := w.topo.Stripes[j].Endpoints
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("stripe %s has no endpoints", w.topo.Stripes[j].Name)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last: %v)", err, lastErr)
			}
			return nil, err
		}
		ep := endpoints[attempt%len(endpoints)]
		rows, err := w.fetchExchangeOnce(ctx, ep, z)
		if err == nil {
			return rows, nil
		}
		lastErr = err
		if !faultinject.IsTransient(err) {
			return nil, err
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Duration(min(attempt+1, 10)) * 200 * time.Millisecond):
		}
	}
}

func (w *Worker) fetchExchangeOnce(ctx context.Context, endpoint string, z int) ([]sky.Galaxy, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/exchange?zone=%d", endpoint, z), nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, asTransient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("exchange %s: HTTP %d: %s", endpoint, resp.StatusCode, body)
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusRequestTimeout {
			return nil, asTransient(err)
		}
		return nil, err
	}
	var rows []sky.Galaxy
	cr := &countingReader{r: resp.Body, n: &w.ctr.exchangeBytesIn}
	if err := decodeExchangeStream(cr, func(m *exchangeMsg) {
		rows = append(rows, m.galaxy())
	}); err != nil {
		return nil, err
	}
	w.ctr.exchangeRowsIn.Add(int64(len(rows)))
	return rows, nil
}

// Handler mounts the worker's RPC surface:
//
//	POST /sweep      NDJSON hit stream for a probe batch (503 until Sync)
//	GET  /exchange   one zone's raw rows, for a neighbouring stripe
//	GET  /stats      WorkerStats JSON
//	GET  /healthz    200 ready / 503 syncing or draining
//	GET  /metrics    Prometheus text exposition (404 until EnableMetrics)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sweep", w.handleSweep)
	mux.HandleFunc("/exchange", w.handleExchange)
	mux.HandleFunc("/stats", w.handleStats)
	mux.HandleFunc("/healthz", w.handleHealthz)
	mux.HandleFunc("/metrics", w.handleMetrics)
	return mux
}

func (w *Worker) handleSweep(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fedError(rw, http.StatusMethodNotAllowed, "POST only", false)
		return
	}
	if !w.ready.Load() {
		fedError(rw, http.StatusServiceUnavailable, "stripe is syncing", true)
		return
	}
	if err := faultinject.Eval(SiteWorkerSweep); err != nil {
		fedError(rw, http.StatusInternalServerError, err.Error(), faultinject.IsTransient(err))
		return
	}
	_ = faultinject.Eval(SiteWorkerSlow) // latency-only site
	var req sweepRequest
	body := &countingReader{r: r.Body, n: &w.ctr.probeBytesIn}
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		fedError(rw, http.StatusBadRequest, "malformed sweep request: "+err.Error(), false)
		return
	}
	w.ctr.sweeps.Add(1)
	w.ctr.probes.Add(int64(len(req.Probes)))

	probes := make([]zone.Probe, len(req.Probes))
	idx := make([]int32, len(req.Probes))
	for i, p := range req.Probes {
		probes[i] = zone.Probe{Ra: p.Ra, Dec: p.Dec, R: p.R}
		idx[i] = p.I
	}

	rw.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(&countingWriter{w: rw, n: &w.ctr.hitBytesOut})
	enc := json.NewEncoder(bw)
	var hits, sinceFlush int64
	src := zone.TableSource(w.zoneT, w.topo.Height())
	err := zone.Sweep(r.Context(), src, probes,
		zone.SweepOptions{Workers: w.sweepWorkers}, func(pi int, zr zone.ZoneRow) {
			if ferr := faultinject.Eval(SiteWorkerStream); ferr != nil {
				// Die mid-stream: flush what the wire already has, then
				// abort the connection without a trailer.
				_ = bw.Flush()
				panic(http.ErrAbortHandler)
			}
			m := sweepMsg{P: idx[pi], ObjID: zr.ObjID, Ra: zr.Ra, Dec: zr.Dec,
				Dist: zr.Distance, MagI: zr.I, Gr: zr.Gr, Ri: zr.Ri}
			_ = enc.Encode(&m)
			hits++
			if sinceFlush++; sinceFlush >= streamFlushEvery {
				sinceFlush = 0
				_ = bw.Flush()
			}
		})
	trailer := sweepMsg{Done: true, Hits: hits}
	if err != nil {
		trailer.Err = err.Error()
		trailer.Transient = faultinject.IsTransient(err)
	}
	_ = enc.Encode(&trailer)
	_ = bw.Flush()
	w.ctr.hits.Add(hits)
}

func (w *Worker) handleExchange(rw http.ResponseWriter, r *http.Request) {
	z, err := strconv.Atoi(r.URL.Query().Get("zone"))
	if err != nil {
		fedError(rw, http.StatusBadRequest, "bad zone", false)
		return
	}
	if ferr := faultinject.Eval(SiteWorkerExchange); ferr != nil {
		fedError(rw, http.StatusInternalServerError, ferr.Error(), faultinject.IsTransient(ferr))
		return
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(&countingWriter{w: rw, n: &w.ctr.exchangeBytesOut})
	enc := json.NewEncoder(bw)
	var rows int64
	for i := range w.raw {
		if w.rawZone[i] != z {
			continue
		}
		m := galaxyMsg(w.raw[i])
		_ = enc.Encode(&m)
		rows++
	}
	_ = enc.Encode(&exchangeMsg{Done: true, Rows: rows})
	_ = bw.Flush()
	w.ctr.exchangeRowsOut.Add(rows)
}

// WorkerStats is the /stats payload: the stripe's identity, zone
// range, and exact traffic counters. The coordinator's TransferStats
// aggregates these into its TransferStats ledger.
type WorkerStats struct {
	Name             string `json:"name"`
	Index            int    `json:"index"`
	Ready            bool   `json:"ready"`
	MinZone          int    `json:"minZone"`
	MaxZone          int    `json:"maxZone"`
	ZoneRows         int64  `json:"zoneRows"`
	RawRows          int64  `json:"rawRows"`
	Sweeps           int64  `json:"sweeps"`
	Probes           int64  `json:"probes"`
	Hits             int64  `json:"hits"`
	ExchangeRowsIn   int64  `json:"exchangeRowsIn"`
	ExchangeRowsOut  int64  `json:"exchangeRowsOut"`
	ProbeBytesIn     int64  `json:"probeBytesIn"`
	HitBytesOut      int64  `json:"hitBytesOut"`
	ExchangeBytesIn  int64  `json:"exchangeBytesIn"`
	ExchangeBytesOut int64  `json:"exchangeBytesOut"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Name: w.name, Index: w.index, Ready: w.ready.Load(),
		MinZone: w.minZone, MaxZone: w.maxZone,
		ZoneRows: w.zoneRows.Load(), RawRows: int64(len(w.raw)),
		Sweeps: w.ctr.sweeps.Load(), Probes: w.ctr.probes.Load(), Hits: w.ctr.hits.Load(),
		ExchangeRowsIn:   w.ctr.exchangeRowsIn.Load(),
		ExchangeRowsOut:  w.ctr.exchangeRowsOut.Load(),
		ProbeBytesIn:     w.ctr.probeBytesIn.Load(),
		HitBytesOut:      w.ctr.hitBytesOut.Load(),
		ExchangeBytesIn:  w.ctr.exchangeBytesIn.Load(),
		ExchangeBytesOut: w.ctr.exchangeBytesOut.Load(),
	}
}

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(w.Stats())
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	switch {
	case w.draining.Load():
		rw.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(rw, "draining\n")
	case !w.ready.Load():
		rw.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(rw, "syncing\n")
	default:
		_, _ = io.WriteString(rw, "ok\n")
	}
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	reg := w.reg.Load()
	if reg == nil {
		fedError(rw, http.StatusNotFound, "metrics not enabled", false)
		return
	}
	rw.Header().Set("Content-Type", telemetry.ContentType)
	_ = reg.WritePrometheus(rw)
}

// fedError writes the federation's JSON error body. The transient flag
// tells the coordinator whether a retry can help (it also classifies
// 5xx as transient on its own, so the flag is advisory).
func fedError(w http.ResponseWriter, code int, msg string, transient bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\": %q, \"transient\": %v}\n", msg, transient)
}
