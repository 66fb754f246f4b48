package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/astro"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// probeReps is how often each layer probe repeats; its p50 is reported.
const probeReps = 9

// p50Ms calls fn reps times and returns the median of its wall times in
// milliseconds: how every baseline beside a workload is timed.
func p50Ms(reps int, fn func(r int) error) (float64, error) {
	ms := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(r); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms), nil
}

// galaxyRows renders the galaxies in the paper's Galaxy schema
// (maxbcg.GalaxyColumns).
func galaxyRows(gals []sky.Galaxy) [][]sqldb.Value {
	rows := make([][]sqldb.Value, len(gals))
	for i := range gals {
		g := &gals[i]
		rows[i] = []sqldb.Value{
			sqldb.Int(g.ObjID), sqldb.Float(g.Ra), sqldb.Float(g.Dec), sqldb.Float(g.I),
			sqldb.Float(g.Gr), sqldb.Float(g.Ri), sqldb.Float(g.SigmaGr), sqldb.Float(g.SigmaRi),
		}
	}
	return rows
}

// loadGalaxyTable bulk-loads rows into a new Galaxy table of db,
// clustered on objid like the CAS archive's.
func loadGalaxyTable(db *sqldb.DB, rows [][]sqldb.Value) error {
	t, err := db.CreateTable("Galaxy", maxbcg.GalaxyColumns(), "objid")
	if err != nil {
		return err
	}
	return t.BulkInsert(rows)
}

// sweepChecksum runs one zone sweep and folds every hit into an
// order-independent checksum, so a sweep and the SQL join or federated
// sweep that should equal it can be compared without agreeing on row
// order between probes.
func sweepChecksum(src zone.Source, probes []zone.Probe, workers int) (hits int64, sum uint64, err error) {
	err = zone.Sweep(context.Background(), src, probes, zone.SweepOptions{Workers: workers},
		func(pi int, zr zone.ZoneRow) {
			hits++
			sum += hitHash(int64(pi), zr.ObjID, zr.Distance)
		})
	return hits, sum, err
}

// probeLayers times the storage-facing layers on their own, over the
// seed's catalog and probes: the bulk-load path, the columnar build and
// the zone sweep in its variants. Every workload's traced run reports
// them, because every workload stands on them somewhere — in its ops or
// in its set-up.
func probeLayers(in *inputs, lr *layerReport) error {
	gals := in.cat.Galaxies
	n := float64(len(gals))

	rows := galaxyRows(gals)
	var bulkS, buildS []float64
	var db *sqldb.DB
	var zt *sqldb.Table
	for r := 0; r < probeReps; r++ {
		db = sqldb.Open(0)
		t0 := time.Now()
		err := loadGalaxyTable(db, rows)
		if err != nil {
			return fmt.Errorf("bulk insert: %w", err)
		}
		bulkS = append(bulkS, time.Since(t0).Seconds())

		t0 = time.Now()
		if zt, err = zone.InstallZoneTableColumnar(db, "Zone", gals, astro.ZoneHeightDeg); err != nil {
			return fmt.Errorf("columnar build: %w", err)
		}
		buildS = append(buildS, time.Since(t0).Seconds())
	}
	lr.set("sqldb.bulkinsert_rows_per_s", n/median(bulkS))
	lr.set("colstore.build_rows_per_s", n/median(buildS))

	col := zone.Columnar(zt.Columnar(), astro.ZoneHeightDeg)
	row := zone.Rows(zt, astro.ZoneHeightDeg)
	wantHits, wantSum, err := sweepChecksum(col, in.probes, 1)
	if err != nil {
		return err
	}
	timeSweep := func(src zone.Source, workers int) (float64, error) {
		return p50Ms(probeReps, func(int) error {
			hits, sum, err := sweepChecksum(src, in.probes, workers)
			if err == nil && (hits != wantHits || sum != wantSum) {
				err = fmt.Errorf("sweep variants disagree: %d hits, want %d", hits, wantHits)
			}
			return err
		})
	}
	before := db.Pool().Stats()
	colMs, err := timeSweep(col, 1)
	if err != nil {
		return err
	}
	pages := db.Pool().Stats().Sub(before).Total()
	rowMs, err := timeSweep(row, 1)
	if err != nil {
		return err
	}
	col2Ms, err := timeSweep(col, 2)
	if err != nil {
		return err
	}
	lr.set("zone.sweep_col_ms_p50", colMs)
	lr.set("zone.sweep_row_ms_p50", rowMs)
	lr.set("colstore.pages_per_sweep", float64(pages)/probeReps)
	if colMs > 0 && col2Ms > 0 {
		lr.set("zone.hits_per_s", float64(wantHits)/(colMs/1e3))
		lr.set("zone.sweep_w2_speedup_x", colMs/col2Ms)
	}
	return nil
}

// hitHash mixes one (probe, object, distance) hit into 64 bits (FNV-1a
// over the three words).
func hitHash(pi, objID int64, dist float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [3]uint64{uint64(pi), uint64(objID), math.Float64bits(dist)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}
