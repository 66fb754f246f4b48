package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astro"
	"repro/internal/faultinject"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

// Options tunes the coordinator's fault handling.
type Options struct {
	// Timeout bounds one RPC attempt (default 30s). A timed-out
	// attempt classifies as transient: the worker may be slow, a
	// retry or replica can still answer.
	Timeout time.Duration
	// Retries is how many extra attempts follow a transient failure
	// (default 2; negative = none). Attempts rotate through the
	// stripe's endpoint list, so with replicas configured a retry is
	// also a failover.
	Retries int
	// HedgeAfter launches a second request against the next replica
	// when the primary has not answered within this duration
	// (0 disables hedging; it needs at least two endpoints).
	HedgeAfter time.Duration
	// Client performs the RPCs (nil = a default without a global
	// timeout — per-attempt contexts bound each call).
	Client *http.Client
}

// A Coordinator is the scatter-gather side of the federation: it
// prunes a probe batch down to the stripes whose zone ranges the
// probes can touch, scatters the sub-batches concurrently, and merges
// the workers' hit streams back into the caller's callback in stripe
// (= ascending zone) order. Because every zone is wholly owned by one
// stripe, the merged sequence is exactly what a centralised zone.Sweep
// over the union of the stripes' rows would emit — bit-identical
// federation, the property the equivalence and boundary tests pin.
//
// A Coordinator is safe for concurrent use; each Sweep's callback runs
// only on its calling goroutine (zone.Sweep's own contract).
type Coordinator struct {
	topo   Topology
	opts   Options
	client *http.Client

	ownedMin, ownedMax []int // per-stripe owned zone range; min>max = owns nothing
	ctr                coordCounters
}

// NewCoordinator validates the topology and precomputes the zone
// ownership map partition pruning runs against.
func NewCoordinator(topo Topology, opts Options) (*Coordinator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	c := &Coordinator{topo: topo.Clone(), opts: opts, client: opts.Client}
	if c.client == nil {
		c.client = &http.Client{}
	}
	n := len(c.topo.Stripes)
	c.ownedMin = make([]int, n)
	c.ownedMax = make([]int, n)
	for i := 0; i < n; i++ {
		mn, mx, ok := c.topo.OwnedZones(i)
		if !ok {
			mn, mx = 1, 0
		}
		c.ownedMin[i], c.ownedMax[i] = mn, mx
	}
	c.ctr.scatter = make([]atomic.Int64, n)
	c.ctr.pruned = make([]atomic.Int64, n)
	return c, nil
}

// Topology returns the coordinator's (cloned) topology.
func (c *Coordinator) Topology() Topology { return c.topo.Clone() }

// EnableMetrics attaches the coordinator-side fed_* families to reg.
func (c *Coordinator) EnableMetrics(reg *telemetry.Registry) {
	registerCoordMetrics(reg, c)
}

// fedHit is one buffered worker hit, tagged with the caller's global
// probe index.
type fedHit struct {
	p   int32
	row zone.ZoneRow
}

// Sweep is the federated zone.Sweep: it answers the probe batch from
// the stripe workers and calls fn exactly as a centralised sweep over
// the full zone table would — same hits, same order, fn never called
// concurrently. Transient worker faults (dropped connections, 5xx,
// truncated streams, timeouts) are retried per Options; a stripe that
// stays down fails the whole sweep with a clean prefix delivered, like
// a local sweep's error contract.
func (c *Coordinator) Sweep(ctx context.Context, probes []zone.Probe, fn func(int, zone.ZoneRow)) error {
	n := len(c.topo.Stripes)
	lists := make([][]wireProbe, n)
	h := c.topo.Height()
	for pi, p := range probes {
		if p.R < 0 {
			continue // never matches; pruned before the wire
		}
		minZ, maxZ := astro.ZoneRange(p.Dec, p.R, h)
		for si := 0; si < n; si++ {
			if c.ownedMin[si] > c.ownedMax[si] ||
				maxZ < c.ownedMin[si] || minZ > c.ownedMax[si] {
				continue
			}
			lists[si] = append(lists[si], wireProbe{I: int32(pi), Ra: p.Ra, Dec: p.Dec, R: p.R})
		}
	}
	c.ctr.sweeps.Add(1)
	participants := 0
	for si := 0; si < n; si++ {
		if len(lists[si]) > 0 {
			participants++
			c.ctr.probes.Add(int64(len(lists[si])))
		}
	}
	if participants == 0 {
		return nil
	}
	for si := 0; si < n; si++ {
		if len(lists[si]) == 0 {
			c.ctr.pruned[si].Add(1)
		}
	}

	sctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait() // never leak attempts past an error return
	defer cancel()

	type result struct {
		hits []fedHit
		err  error
	}
	results := make([]result, n)
	done := make([]chan struct{}, n)
	for si := 0; si < n; si++ {
		if len(lists[si]) == 0 {
			continue
		}
		done[si] = make(chan struct{})
		body, err := json.Marshal(sweepRequest{Probes: lists[si]})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(si int, body []byte) {
			defer wg.Done()
			hits, err := c.fetchStripe(sctx, si, body)
			results[si] = result{hits: hits, err: err}
			close(done[si])
		}(si, body)
	}

	// Merge in stripe order = ascending zone order. Each stripe's
	// stream is already (zone asc, ra asc) from its local sweep, and
	// zone ownership makes the stripe ranges disjoint and contiguous,
	// so plain concatenation replays the centralised callback
	// sequence. fn runs only here, on the calling goroutine.
	for si := 0; si < n; si++ {
		if done[si] == nil {
			continue
		}
		select {
		case <-done[si]:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := results[si].err; err != nil {
			return fmt.Errorf("fed: stripe %s: %w", c.topo.Stripes[si].Name, err)
		}
		for i := range results[si].hits {
			ht := &results[si].hits[i]
			fn(int(ht.p), ht.row)
		}
		c.ctr.hits.Add(int64(len(results[si].hits)))
		results[si].hits = nil
	}
	return nil
}

// fetchStripe runs the retry/failover loop for one stripe's sub-batch.
// Every attempt fills a fresh buffer and only the succeeding attempt's
// buffer is returned, so a retried stripe can never double-count hits.
func (c *Coordinator) fetchStripe(ctx context.Context, si int, body []byte) ([]fedHit, error) {
	endpoints := c.topo.Stripes[si].Endpoints
	if len(endpoints) == 0 {
		return nil, errors.New("no endpoints configured")
	}
	attempts := c.opts.Retries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a > 0 {
			c.ctr.retries.Add(1)
			if len(endpoints) > 1 {
				c.ctr.failovers.Add(1)
			}
		}
		hits, err := c.attemptHedged(ctx, si, a%len(endpoints), body)
		if err == nil {
			return hits, nil
		}
		lastErr = err
		if !faultinject.IsTransient(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("unavailable after %d attempts: %w", attempts, lastErr)
}

// attemptHedged is one logical attempt: the primary request, plus — if
// hedging is configured and the primary is slow — a second request
// against the next replica. The first success wins and the loser is
// cancelled; the winner's buffer alone is returned.
func (c *Coordinator) attemptHedged(ctx context.Context, si, epi int, body []byte) ([]fedHit, error) {
	endpoints := c.topo.Stripes[si].Endpoints
	if c.opts.HedgeAfter <= 0 || len(endpoints) < 2 {
		return c.attempt(ctx, si, endpoints[epi], body)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		hits []fedHit
		err  error
	}
	ch := make(chan res, 2)
	launched := 1
	go func() {
		h, e := c.attempt(actx, si, endpoints[epi], body)
		ch <- res{h, e}
	}()
	timer := time.NewTimer(c.opts.HedgeAfter)
	defer timer.Stop()
	var errs []error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.hits, nil
			}
			errs = append(errs, r.err)
			if len(errs) == launched {
				return nil, pickErr(errs)
			}
		case <-timer.C:
			if launched == 1 {
				launched = 2
				c.ctr.hedges.Add(1)
				hedgeEp := endpoints[(epi+1)%len(endpoints)]
				go func() {
					h, e := c.attempt(actx, si, hedgeEp, body)
					ch <- res{h, e}
				}()
			}
		}
	}
}

// pickErr prefers a transient error (so the retry loop keeps going
// when at least one failure was retryable) over a permanent one.
func pickErr(errs []error) error {
	for _, e := range errs {
		if faultinject.IsTransient(e) {
			return e
		}
	}
	return errs[0]
}

// attempt performs a single /sweep RPC and decodes the full stream
// into a fresh buffer. Transport failures, 5xx answers, per-attempt
// timeouts, and truncated streams classify transient; a cancelled
// parent context and 4xx answers are permanent.
func (c *Coordinator) attempt(ctx context.Context, si int, endpoint string, body []byte) ([]fedHit, error) {
	if err := faultinject.Eval(SiteCoordRequest); err != nil {
		return nil, err
	}
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, endpoint+"/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.ctr.scatter[si].Add(1)
	c.ctr.probeBytesOut.Add(int64(len(body)))
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, asTransient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("%s: HTTP %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusRequestTimeout {
			return nil, asTransient(err)
		}
		return nil, err
	}
	var hits []fedHit
	cr := &countingReader{r: resp.Body, n: &c.ctr.hitBytesIn}
	if err := decodeSweepStream(cr, func(m *sweepMsg) {
		hits = append(hits, fedHit{p: m.P, row: m.row()})
	}); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return hits, nil
}

// CoordStats is a snapshot of the coordinator's counters — the same
// values the fed_* metric families export.
type CoordStats struct {
	Sweeps, Probes, Hits       int64
	Retries, Failovers, Hedges int64
	ProbeBytesOut, HitBytesIn  int64
}

// CoordStats snapshots the coordinator-side counters.
func (c *Coordinator) CoordStats() CoordStats {
	return CoordStats{
		Sweeps: c.ctr.sweeps.Load(), Probes: c.ctr.probes.Load(), Hits: c.ctr.hits.Load(),
		Retries: c.ctr.retries.Load(), Failovers: c.ctr.failovers.Load(), Hedges: c.ctr.hedges.Load(),
		ProbeBytesOut: c.ctr.probeBytesOut.Load(), HitBytesIn: c.ctr.hitBytesIn.Load(),
	}
}

// WaitReady blocks until every stripe answers /healthz with 200 (the
// buffer-zone exchange is done fleet-wide) or ctx expires.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	for si := range c.topo.Stripes {
		for {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("fed: stripe %s not ready: %w", c.topo.Stripes[si].Name, err)
			}
			if c.stripeHealthy(ctx, si) {
				break
			}
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}

func (c *Coordinator) stripeHealthy(ctx context.Context, si int) bool {
	for _, ep := range c.topo.Stripes[si].Endpoints {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := c.client.Do(req)
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return true
		}
	}
	return false
}

// Stats fetches every stripe's /stats snapshot (first answering
// endpoint per stripe).
func (c *Coordinator) Stats(ctx context.Context) ([]WorkerStats, error) {
	out := make([]WorkerStats, 0, len(c.topo.Stripes))
	for si, s := range c.topo.Stripes {
		var got *WorkerStats
		var lastErr error
		for _, ep := range s.Endpoints {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/stats", nil)
			if err != nil {
				lastErr = err
				continue
			}
			resp, err := c.client.Do(req)
			if err != nil {
				lastErr = err
				continue
			}
			var ws WorkerStats
			err = json.NewDecoder(resp.Body).Decode(&ws)
			resp.Body.Close()
			if err != nil {
				lastErr = err
				continue
			}
			got = &ws
			break
		}
		if got == nil {
			return nil, fmt.Errorf("fed: stats for stripe %s: %v", c.topo.Stripes[si].Name, lastErr)
		}
		out = append(out, *got)
	}
	return out, nil
}

// TransferStats is the federation's byte ledger for the paper's §4
// code-to-data argument: what moved over the wire, and what the
// data-to-code alternative would have moved.
type TransferStats struct {
	// CodeBytes is the work shipped to the data: the probe batches the
	// coordinator sends to the stripe workers.
	CodeBytes int64
	// BoundaryBytes is catalog data exchanged between neighbouring
	// stripes at boot so border clusters see full neighbourhoods.
	BoundaryBytes int64
	// ResultBytes is the merged answer shipped back: the hit streams.
	ResultBytes int64
	// DataShippingBytes is the counterfactual the caller fills in: the
	// traffic of the file-based Grid baseline, which fetches a Target and
	// a Buffer file from the archive for every 0.25 deg² field —
	// overlapping buffers are re-fetched per field ("hundreds of
	// thousands of files").
	DataShippingBytes int64
}

// SteadyStateMoved returns the per-analysis traffic once the boundary
// strips are replicated (they are static catalog data, fetched once and
// kept like the paper's duplicated partition buffers): only the code and
// the results move. This is the regime the paper's §4 argues from.
func (t TransferStats) SteadyStateMoved() int64 { return t.CodeBytes + t.ResultBytes }

// TransferStats aggregates the federation's exact wire accounting into
// the ledger: probes shipped to the data are the paper's "code moves to
// the data" traffic, the merged hit streams are the result shipped back,
// and the boot-time buffer-zone exchange is the boundary traffic. All
// three are measured request/response body bytes (counted as they cross
// the socket), not struct-size estimates.
func (c *Coordinator) TransferStats(ctx context.Context) (TransferStats, error) {
	ts := TransferStats{
		CodeBytes:   c.ctr.probeBytesOut.Load(),
		ResultBytes: c.ctr.hitBytesIn.Load(),
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		return ts, err
	}
	for _, ws := range stats {
		ts.BoundaryBytes += ws.ExchangeBytesIn
	}
	return ts, nil
}

// RegisterNearbyTVF registers fGetNearbyObjEqZd backed by the
// federation instead of a local zone table: the same SQL the
// centralised engine runs — including the lateral-join batch shape —
// fans out through the coordinator, and EXPLAIN shows the federated
// access path. Bit-identical to the local TVF over the same rows,
// because Sweep is.
func (c *Coordinator) RegisterNearbyTVF(db *sqldb.DB) {
	parseArgs := func(args []sqldb.Value) (ra, dec, r float64, err error) {
		if len(args) != 3 {
			return 0, 0, 0, fmt.Errorf("fed: fGetNearbyObjEqZd expects (ra, dec, r)")
		}
		if ra, err = args[0].AsFloat(); err != nil {
			return
		}
		if dec, err = args[1].AsFloat(); err != nil {
			return
		}
		r, err = args[2].AsFloat()
		return
	}
	minZ, maxZ := c.topo.ZoneExtent()
	db.RegisterTVF("fGetNearbyObjEqZd", &sqldb.TVF{
		Cols: []sqldb.Column{
			{Name: "objID", Type: sqldb.TInt},
			{Name: "distance", Type: sqldb.TFloat},
		},
		Fn: func(args []sqldb.Value) ([][]sqldb.Value, error) {
			ra, dec, r, err := parseArgs(args)
			if err != nil {
				return nil, err
			}
			var rows [][]sqldb.Value
			err = c.Sweep(context.Background(), []zone.Probe{{Ra: ra, Dec: dec, R: r}},
				func(_ int, zr zone.ZoneRow) {
					rows = append(rows, []sqldb.Value{sqldb.Int(zr.ObjID), sqldb.Float(zr.Distance)})
				})
			return rows, err
		},
		Batch: func(ctx context.Context, probes [][]sqldb.Value, emit func(int, []sqldb.Value)) error {
			ps := make([]zone.Probe, len(probes))
			for i, args := range probes {
				ra, dec, r, err := parseArgs(args)
				if err != nil {
					return err
				}
				ps[i] = zone.Probe{Ra: ra, Dec: dec, R: r}
			}
			scratch := make([]sqldb.Value, 2)
			return c.Sweep(ctx, ps, func(pi int, zr zone.ZoneRow) {
				scratch[0] = sqldb.Int(zr.ObjID)
				scratch[1] = sqldb.Float(zr.Distance)
				emit(pi, scratch)
			})
		},
		Access: fmt.Sprintf("FederatedSweep [%d stripes, zones %d..%d]",
			len(c.topo.Stripes), minZ, maxZ),
	})
}
