package main

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strconv"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
	"repro/internal/zone"
)

// sqlClasses are the statement classes of one sql_mix round, in the
// order they run.
var sqlClasses = []string{"zonejoin", "scanagg", "point"}

// sqlMixFrames is the archive's buffer pool: 512 frames = 4 MiB, a
// fraction of the Galaxy and Zone tables it serves (notes prints both).
const sqlMixFrames = 512

const (
	zoneJoinSQL = `SELECT p.pid, n.objID, n.distance FROM Probes p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n`
	scanAggSQL  = `SELECT COUNT(*), AVG(i) FROM Galaxy WHERE ra BETWEEN ? AND ? AND dec BETWEEN ? AND ? AND i < ?`
	pointSQL    = `SELECT objid, ra, dec, i FROM Galaxy WHERE objid = ?`
)

// sqlMix is the CasJobs user's ad-hoc SQL against a CAS-style archive
// whose pool is much smaller than its data. One op is one round of the
// three statement classes.
type sqlMix struct {
	in        *inputs
	db        *sqldb.DB
	zt        *sqldb.Table
	dataPages int64

	// oracle
	joinHits int64
	joinSum  uint64
	byID     map[int64]*sky.Galaxy

	// output of the round that just ran
	gotJoin  *sqldb.Rows
	gotAgg   *sqldb.Rows
	gotPoint []*sqldb.Rows
}

func setupSQLMix(in *inputs) (instance, error) {
	w := &sqlMix{in: in, db: sqldb.OpenPool(sqldb.PoolConfig{Frames: sqlMixFrames})}
	if err := loadGalaxyTable(w.db, galaxyRows(in.cat.Galaxies)); err != nil {
		return nil, fmt.Errorf("load Galaxy: %w", err)
	}
	zt, err := zone.InstallZoneTableColumnar(w.db, "Zone", in.cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		return nil, fmt.Errorf("install Zone: %w", err)
	}
	w.zt = zt
	zone.RegisterNearbyTVF(w.db, zt, astro.ZoneHeightDeg)
	if _, err := w.db.Exec("CREATE TABLE Probes (pid bigint PRIMARY KEY, ra float, dec float, r float)"); err != nil {
		return nil, err
	}
	pt, _ := w.db.Table("Probes")
	rows := make([][]sqldb.Value, len(in.probes))
	for i, p := range in.probes {
		rows[i] = []sqldb.Value{sqldb.Int(int64(i)), sqldb.Float(p.Ra), sqldb.Float(p.Dec), sqldb.Float(p.R)}
	}
	if err := pt.BulkInsert(rows); err != nil {
		return nil, fmt.Errorf("load Probes: %w", err)
	}
	// Everything the load dirtied goes to the store, so the count of
	// page writes is the size of the data the pool has to serve.
	if err := w.db.Pool().FlushAll(); err != nil {
		return nil, err
	}
	w.dataPages = w.db.Pool().Stats().PhysicalWrites
	return w, nil
}

func (w *sqlMix) buildOracle() (err error) {
	src := zone.Columnar(w.zt.Columnar(), astro.ZoneHeightDeg)
	w.joinHits, w.joinSum, err = sweepChecksum(src, w.in.probes, 1)
	if err == nil && w.joinHits == 0 {
		err = fmt.Errorf("the probes hit nothing; the zone join would be vacuous")
	}
	w.byID = make(map[int64]*sky.Galaxy, len(w.in.cat.Galaxies))
	for k := range w.in.cat.Galaxies {
		w.byID[w.in.cat.Galaxies[k].ObjID] = &w.in.cat.Galaxies[k]
	}
	return err
}

func (w *sqlMix) io() storage.Stats { return w.db.Pool().Stats() }
func (w *sqlMix) poolIO() int64     { return w.db.Pool().Stats().Total() }
func (w *sqlMix) close()            {}

func (w *sqlMix) notes() []string {
	return []string{fmt.Sprintf("pool %d frames against %d data pages (%.2f of the data); zone join returns %d rows",
		sqlMixFrames, w.dataPages, float64(sqlMixFrames)/float64(w.dataPages), w.joinHits)}
}

// scanArgs are round i's arguments of scanAggSQL.
func (w *sqlMix) scanArgs(i int) []sqldb.Value {
	b := w.in.scanBoxes[i]
	return []sqldb.Value{sqldb.Float(b.MinRa), sqldb.Float(b.MaxRa),
		sqldb.Float(b.MinDec), sqldb.Float(b.MaxDec), sqldb.Float(w.in.scanIMax[i])}
}

func (w *sqlMix) op(i int, tr *opTrace) error {
	w.gotJoin, w.gotAgg, w.gotPoint = nil, nil, w.gotPoint[:0]
	class := func(name string, fn func() error) error {
		defer tr.span("sqldb."+name, w.poolIO)()
		return fn()
	}
	if err := class("zonejoin", func() (err error) {
		w.gotJoin, err = w.db.Query(zoneJoinSQL)
		return err
	}); err != nil {
		return err
	}
	if err := class("scanagg", func() (err error) {
		w.gotAgg, err = w.db.Query(scanAggSQL, w.scanArgs(i)...)
		return err
	}); err != nil {
		return err
	}
	return class("point", func() error {
		for _, id := range w.in.pointIDs[i] {
			rows, err := w.db.Query(pointSQL, sqldb.Int(id))
			if err != nil {
				return err
			}
			w.gotPoint = append(w.gotPoint, rows)
		}
		return nil
	})
}

func (w *sqlMix) check(i int) error {
	// zonejoin: the same rows the Go sweep finds.
	var sum uint64
	for _, r := range w.gotJoin.All() {
		sum += hitHash(r[0].I, r[1].I, r[2].F)
	}
	if n := int64(w.gotJoin.Len()); n != w.joinHits || sum != w.joinSum {
		return fmt.Errorf("zonejoin: %d rows (checksum %x), the sweep finds %d (%x)", n, sum, w.joinHits, w.joinSum)
	}
	// scanagg: a brute-force pass over the catalog slice, in the same
	// (objid) order the clustered scan adds the values up.
	var cnt int64
	var tot float64
	b, iMax := w.in.scanBoxes[i], w.in.scanIMax[i]
	for k := range w.in.cat.Galaxies {
		g := &w.in.cat.Galaxies[k]
		if g.Ra >= b.MinRa && g.Ra <= b.MaxRa && g.Dec >= b.MinDec && g.Dec <= b.MaxDec && g.I < iMax {
			cnt++
			tot += g.I
		}
	}
	if !w.gotAgg.Next() {
		return fmt.Errorf("scanagg: no row")
	}
	agg := w.gotAgg.Row()
	if agg[0].I != cnt {
		return fmt.Errorf("scanagg: COUNT %d, brute force %d", agg[0].I, cnt)
	}
	if cnt > 0 {
		if want := tot / float64(cnt); math.Abs(agg[1].F-want) > 1e-9*math.Abs(want) {
			return fmt.Errorf("scanagg: AVG %v, brute force %v", agg[1].F, want)
		}
	}
	// point: every lookup returns exactly the row asked for.
	for k, rows := range w.gotPoint {
		id := w.in.pointIDs[i][k]
		if rows.Len() != 1 || !rows.Next() {
			return fmt.Errorf("point: objid %d returned %d rows", id, rows.Len())
		}
		g, r := w.byID[id], rows.Row()
		if r[0].I != id || r[1].F != g.Ra || r[2].F != g.Dec || r[3].F != g.I {
			return fmt.Errorf("point: objid %d returned %v", id, r)
		}
	}
	return nil
}

var actualRows = regexp.MustCompile(`actual (\d+) rows`)

// examinedPerReturned reads EXPLAIN ANALYZE: the widest operator of the
// plan over the rows the root returns — how much the engine looked at
// for each row it gave back.
func (w *sqlMix) examinedPerReturned(sql string, args ...sqldb.Value) (float64, error) {
	plan, err := w.db.Explain("EXPLAIN ANALYZE "+sql, args...)
	if err != nil {
		return 0, err
	}
	m := actualRows.FindAllStringSubmatch(plan, -1)
	if len(m) == 0 {
		return 0, fmt.Errorf("no row counts in plan:\n%s", plan)
	}
	var widest, root float64
	for k, sub := range m {
		n, _ := strconv.ParseFloat(sub[1], 64)
		if k == 0 {
			root = n
		}
		widest = math.Max(widest, n)
	}
	if root == 0 {
		return 0, nil
	}
	return widest / root, nil
}

func (w *sqlMix) drain() (int, int) { return 0, 0 }

func (w *sqlMix) layers(lr *layerReport) error {
	spans := lr.rec.byName()
	p50 := make(map[string]float64)
	for _, c := range sqlClasses {
		var ms []float64
		for _, sp := range spans["sqldb."+c] {
			ms = append(ms, sp.ms())
		}
		p50[c] = median(ms)
		lr.set("sqldb."+c+"_ms_p50", p50[c])
	}

	for c, q := range map[string]struct {
		sql  string
		args []sqldb.Value
	}{
		"zonejoin": {zoneJoinSQL, nil},
		"scanagg":  {scanAggSQL, w.scanArgs(0)},
		"point":    {pointSQL, []sqldb.Value{sqldb.Int(w.in.pointIDs[0][0])}},
	} {
		x, err := w.examinedPerReturned(q.sql, q.args...)
		if err != nil {
			return fmt.Errorf("explain %s: %w", c, err)
		}
		lr.set("sqldb."+c+"_rows_examined_per_returned", x)
	}

	// The Go lane of the SQL/Go ratio: the same sweep, materialising the
	// same (pid, objID, distance) rows, without parser, planner or
	// operators.
	src := zone.Columnar(w.zt.Columnar(), astro.ZoneHeightDeg)
	goMs, err := p50Ms(probeReps, func(int) error {
		rows, err := goJoin(src, w.in.probes)
		if err == nil && int64(len(rows)) != w.joinHits {
			err = fmt.Errorf("go sweep: %d rows, want %d", len(rows), w.joinHits)
		}
		return err
	})
	if err != nil {
		return err
	}
	lr.set("sqldb.go_sweep_ms_p50", goMs)
	if goMs > 0 {
		lr.set("sqldb.sql_over_go_x", p50["zonejoin"]/goMs)
	}
	return nil
}

// goJoin answers the zone join in Go: per-probe rows buffered and
// flattened in probe order, the result set the SQL statement returns.
func goJoin(src zone.Source, probes []zone.Probe) ([][]sqldb.Value, error) {
	hits := make([][][]sqldb.Value, len(probes))
	err := zone.Sweep(context.Background(), src, probes, zone.SweepOptions{Workers: 1},
		func(pi int, zr zone.ZoneRow) {
			hits[pi] = append(hits[pi], []sqldb.Value{
				sqldb.Int(int64(pi)), sqldb.Int(zr.ObjID), sqldb.Float(zr.Distance),
			})
		})
	if err != nil {
		return nil, err
	}
	var out [][]sqldb.Value
	for _, h := range hits {
		out = append(out, h...)
	}
	return out, nil
}
