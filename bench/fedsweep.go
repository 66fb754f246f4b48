package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/astro"
	"repro/internal/fed"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
	"repro/internal/zone"
)

// fedSweep is the grid operator's federated zone sweep: two stripe
// workers behind loopback HTTP listeners in this process, synced, and a
// coordinator with default options scattering one probe batch per op.
type fedSweep struct {
	in      *inputs
	workers []*fed.Worker
	servers []*http.Server
	served  sync.WaitGroup
	coord   *fed.Coordinator

	// the same region rows in one local zone table: the oracle, and the
	// base of fed.overhead_x
	local    zone.Source
	wantHits []int64 // per probe batch
	wantSum  []uint64
	got      int64
	gotSum   uint64
	hits     int64 // over all ops so far
	stats0   fed.CoordStats
}

func setupFedSweep(in *inputs) (inst instance, err error) {
	region := in.size.fedRegion
	mid := (region.MinDec + region.MaxDec) / 2
	topo := fed.Topology{Region: region, Stripes: []fed.Stripe{
		{Name: "south", MinDec: region.MinDec, MaxDec: mid},
		{Name: "north", MinDec: mid, MaxDec: region.MaxDec},
	}}
	w := &fedSweep{in: in}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	urls := make([]string, len(topo.Stripes))
	for i := range topo.Stripes {
		fw, err := fed.NewWorker(topo, i, in.cat, fed.WorkerOptions{SweepWorkers: 1, Logger: quiet})
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		srv := &http.Server{Handler: fw.Handler()}
		w.workers = append(w.workers, fw)
		w.servers = append(w.servers, srv)
		w.served.Add(1)
		go func() {
			defer w.served.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed from close()
		}()
		urls[i] = "http://" + ln.Addr().String()
	}
	for i, fw := range w.workers {
		for j, u := range urls {
			fw.SetEndpoints(j, u)
		}
		topo.Stripes[i].Endpoints = []string{urls[i]}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make([]error, len(w.workers))
	var wg sync.WaitGroup
	for i, fw := range w.workers {
		wg.Add(1)
		go func(i int, fw *fed.Worker) {
			defer wg.Done()
			errs[i] = fw.Sync(ctx)
		}(i, fw)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sync worker %d: %w", i, err)
		}
	}
	if w.coord, err = fed.NewCoordinator(topo, fed.Options{}); err != nil {
		return nil, err
	}

	var gals []sky.Galaxy
	for _, g := range in.cat.Galaxies {
		if region.Contains(g.Ra, g.Dec) {
			gals = append(gals, g)
		}
	}
	zt, err := zone.InstallZoneTableColumnar(sqldb.Open(0), "Zone", gals, astro.ZoneHeightDeg)
	if err != nil {
		return nil, fmt.Errorf("local zone table: %w", err)
	}
	w.local = zone.TableSource(zt, astro.ZoneHeightDeg)
	return w, nil
}

// batch is the probe batch op i sweeps.
func (w *fedSweep) batch(i int) []zone.Probe { return w.in.fedProbes[i%len(w.in.fedProbes)] }

// localSweep is the centralised sweep the federation must equal, with
// the engine's default worker count.
func (w *fedSweep) localSweep(i int) (int64, uint64, error) {
	return sweepChecksum(w.local, w.batch(i), 0)
}

func (w *fedSweep) buildOracle() error {
	for i := range w.in.fedProbes {
		hits, sum, err := w.localSweep(i)
		if err != nil {
			return err
		}
		if hits == 0 {
			return fmt.Errorf("probe batch %d hits nothing; the sweep would be vacuous", i)
		}
		w.wantHits, w.wantSum = append(w.wantHits, hits), append(w.wantSum, sum)
	}
	w.stats0 = w.coord.CoordStats()
	return nil
}

func (w *fedSweep) op(i int, tr *opTrace) error {
	w.got, w.gotSum = 0, 0
	err := w.coord.Sweep(context.Background(), w.batch(i), func(pi int, zr zone.ZoneRow) {
		w.got++
		w.gotSum += hitHash(int64(pi), zr.ObjID, zr.Distance)
	})
	w.hits += w.got
	return err
}

func (w *fedSweep) check(i int) error {
	b := i % len(w.wantHits)
	if w.got != w.wantHits[b] || w.gotSum != w.wantSum[b] {
		return fmt.Errorf("federated sweep: %d hits (checksum %x), local sweep %d (%x)", w.got, w.gotSum, w.wantHits[b], w.wantSum[b])
	}
	return nil
}

func (w *fedSweep) io() storage.Stats {
	var st storage.Stats
	for _, fw := range w.workers {
		st.Add(fw.DB().Pool().Stats())
	}
	return st
}

func (w *fedSweep) drain() (int, int) { return 0, 0 }

func (w *fedSweep) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range w.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // a connection outlived the grace period
		}
	}
	w.served.Wait()
}

func (w *fedSweep) notes() []string {
	var rows int64
	for _, fw := range w.workers {
		rows += fw.Stats().ZoneRows
	}
	var hits int64
	for _, h := range w.wantHits {
		hits += h
	}
	return []string{fmt.Sprintf("%d stripe workers holding %d zone rows; %d batches of %d probes, %d hits per sweep on average",
		len(w.workers), rows, len(w.in.fedProbes), w.in.size.probes, hits/int64(len(w.wantHits)))}
}

func (w *fedSweep) layers(lr *layerReport) error {
	st := w.coord.CoordStats()
	sweeps := float64(st.Sweeps - w.stats0.Sweeps)
	if sweeps == 0 {
		return nil
	}
	out := float64(st.ProbeBytesOut - w.stats0.ProbeBytesOut)
	in := float64(st.HitBytesIn - w.stats0.HitBytesIn)
	lr.set("fed.probe_bytes_out", out/sweeps)
	lr.set("fed.hit_bytes_in", in/sweeps)
	if w.hits > 0 {
		lr.set("fed.wire_bytes_per_hit", (out+in)/float64(w.hits))
	}
	lr.set("fed.retries", float64(st.Retries-w.stats0.Retries))
	lr.set("fed.failovers", float64(st.Failovers-w.stats0.Failovers))

	// The same probes without the wire: the centralised sweep, and each
	// stripe's own table swept directly. An op waits for its slowest
	// stripe, so that one is the share the wire is not to blame for.
	localMs, err := p50Ms(probeReps, func(r int) error { _, _, err := w.localSweep(r); return err })
	if err != nil {
		return err
	}
	var slowest float64
	for _, fw := range w.workers {
		zt, ok := fw.DB().Table("zone")
		if !ok {
			return fmt.Errorf("worker %s has no zone table", fw.Name())
		}
		src := zone.TableSource(zt, astro.ZoneHeightDeg)
		ms, err := p50Ms(probeReps, func(r int) error { _, _, err := sweepChecksum(src, w.batch(r), 1); return err })
		if err != nil {
			return err
		}
		slowest = max(slowest, ms)
	}
	var opMs []float64
	for _, sp := range lr.rec.byName()["op"] {
		opMs = append(opMs, sp.ms())
	}
	lr.set("fed.local_sweep_ms_p50", localMs)
	lr.set("fed.worker_sweep_ms_p50", slowest)
	lr.set("fed.wire_ms_p50", median(opMs)-slowest)
	if localMs > 0 {
		lr.set("fed.overhead_x", median(opMs)/localMs)
	}
	return nil
}
