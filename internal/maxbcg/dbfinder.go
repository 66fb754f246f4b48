package maxbcg

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/astro"
	"repro/internal/colstore"
	"repro/internal/perfmodel"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
	"repro/internal/zone"
)

// A RemoteSweeper answers a probe set under zone.Sweep's exact contract
// (hits per probe in (zone asc, ra asc) order, fn never concurrent, clean
// prefix by zone on error) from somewhere other than a local zone table —
// fed.Coordinator scatters it across stripe workers. It is the single seam
// the federation needs in the pipeline: every search is one sweep call.
type RemoteSweeper interface {
	Sweep(ctx context.Context, probes []zone.Probe, fn func(int, zone.ZoneRow)) error
}

// DBFinder is the paper's SQL Server implementation: the catalog lives in
// sqldb tables, spZone builds the zone-clustered index, and the sp* tasks
// run against buffer-pool-backed storage so the harness can report the
// elapsed / CPU / I/O rows of Table 1 per task.
type DBFinder struct {
	Params     Params
	Kcorr      *sky.Kcorr
	ZoneHeight float64
	DB         *sqldb.DB
	// Workers sizes the pool that runs fBCGCandidate: 0 = one worker per
	// CPU. The pool is perfmodel.RunPool, the one cluster.Run uses too:
	// its workers claim bands of candidateBandZones zones, one band at a
	// time, in each of the task's three passes (scan, sweep, finish), and
	// every band's zone.Sweep is sequential, as every zone.Sweep is.
	// Output and pages read are identical at every setting.
	Workers int
	// Remote, when set, answers the zone sweeps over Zone instead of the
	// local table (the swept zone table lives sharded across stripe
	// workers — see internal/fed): fBCGCandidate's sweep pass is one
	// Remote.Sweep of every survivor, MakeMembers' one of every cluster.
	// SpZone still builds the local Zone, which is then the candidate
	// scan's probe list only, and fIsCluster's sweep over CandZone stays
	// local. The contract is unchanged — same hits, same order — so the
	// output is bit-identical to the local run.
	Remote RemoteSweeper

	// poolCPU accumulates the thread CPU time, in nanoseconds, of the
	// candidate pool's workers; Run folds the per-task delta into the
	// cpu(s) column.
	poolCPU atomic.Int64

	galaxyT  *sqldb.Table
	kcorrT   *sqldb.Table
	zoneT    *sqldb.Table
	candT    *sqldb.Table
	candZT   *sqldb.Table
	clusterT *sqldb.Table
	memberT  *sqldb.Table
}

// GalaxyColumns is the paper's Galaxy schema.
func GalaxyColumns() []sqldb.Column {
	return []sqldb.Column{
		{Name: "objid", Type: sqldb.TInt},
		{Name: "ra", Type: sqldb.TFloat},
		{Name: "dec", Type: sqldb.TFloat},
		{Name: "i", Type: sqldb.TFloat},
		{Name: "gr", Type: sqldb.TFloat},
		{Name: "ri", Type: sqldb.TFloat},
		{Name: "sigmagr", Type: sqldb.TFloat},
		{Name: "sigmari", Type: sqldb.TFloat},
	}
}

func candidateColumns() []sqldb.Column {
	return []sqldb.Column{
		{Name: "objid", Type: sqldb.TInt},
		{Name: "ra", Type: sqldb.TFloat},
		{Name: "dec", Type: sqldb.TFloat},
		{Name: "z", Type: sqldb.TFloat},
		{Name: "i", Type: sqldb.TFloat},
		{Name: "ngal", Type: sqldb.TInt},
		{Name: "chi2", Type: sqldb.TFloat},
	}
}

// NewDBFinder creates the schema (Galaxy, Kcorr, Candidates, Clusters,
// ClusterGalaxiesMetric) in db and loads the k-correction table, mirroring
// the paper's MyDB setup script.
func NewDBFinder(db *sqldb.DB, p Params, kcorr *sky.Kcorr, zoneHeightDeg float64) (*DBFinder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if kcorr == nil {
		return nil, fmt.Errorf("maxbcg: nil k-correction table")
	}
	if zoneHeightDeg == 0 {
		zoneHeightDeg = astro.ZoneHeightDeg
	}
	f := &DBFinder{Params: p, Kcorr: kcorr, ZoneHeight: zoneHeightDeg, DB: db}

	var err error
	if f.galaxyT, err = db.CreateTable("Galaxy", GalaxyColumns(), "objid"); err != nil {
		return nil, err
	}
	kcols := []sqldb.Column{
		{Name: "zid", Type: sqldb.TInt, Identity: true},
		{Name: "z", Type: sqldb.TFloat},
		{Name: "i", Type: sqldb.TFloat},
		{Name: "ilim", Type: sqldb.TFloat},
		{Name: "ug", Type: sqldb.TFloat},
		{Name: "gr", Type: sqldb.TFloat},
		{Name: "ri", Type: sqldb.TFloat},
		{Name: "iz", Type: sqldb.TFloat},
		{Name: "radius", Type: sqldb.TFloat},
	}
	if f.kcorrT, err = db.CreateTable("Kcorr", kcols, "zid"); err != nil {
		return nil, err
	}
	krows := make([][]sqldb.Value, len(kcorr.Rows))
	for i, r := range kcorr.Rows {
		krows[i] = []sqldb.Value{
			sqldb.Int(int64(r.Zid)), sqldb.Float(r.Z), sqldb.Float(r.I), sqldb.Float(r.Ilim),
			sqldb.Float(r.Ug), sqldb.Float(r.Gr), sqldb.Float(r.Ri), sqldb.Float(r.Iz),
			sqldb.Float(r.Radius),
		}
	}
	if err := f.kcorrT.BulkInsert(krows); err != nil {
		return nil, err
	}
	if f.candT, err = db.CreateTable("Candidates", candidateColumns(), "objid"); err != nil {
		return nil, err
	}
	if f.clusterT, err = db.CreateTable("Clusters", candidateColumns(), "objid"); err != nil {
		return nil, err
	}
	mcols := []sqldb.Column{
		{Name: "clusterObjID", Type: sqldb.TInt},
		{Name: "galaxyObjID", Type: sqldb.TInt},
		{Name: "distance", Type: sqldb.TFloat},
	}
	if f.memberT, err = db.CreateTable("ClusterGalaxiesMetric", mcols, ""); err != nil {
		return nil, err
	}
	return f, nil
}

// ImportGalaxies loads the catalog's galaxies inside region into the Galaxy
// table (the paper's spImportGalaxy) and returns the row count. The
// extract bulk-loads in one pass instead of one tree descent per galaxy.
func (f *DBFinder) ImportGalaxies(cat *sky.Catalog, region astro.Box) (int64, error) {
	if err := f.galaxyT.Truncate(); err != nil {
		return 0, err
	}
	keep := make([]int32, 0, len(cat.Galaxies))
	for i := range cat.Galaxies {
		if region.Contains(cat.Galaxies[i].Ra, cat.Galaxies[i].Dec) {
			keep = append(keep, int32(i))
		}
	}
	// One scratch row streams the extract (BulkInsertFunc encodes a row
	// before asking for the next); the catalog is in objid order, so the
	// load streams into the tree as well.
	scratch := make([]sqldb.Value, len(GalaxyColumns()))
	rowAt := func(i int) []sqldb.Value {
		g := &cat.Galaxies[keep[i]]
		scratch[0] = sqldb.Int(g.ObjID)
		scratch[1] = sqldb.Float(g.Ra)
		scratch[2] = sqldb.Float(g.Dec)
		scratch[3] = sqldb.Float(g.I)
		scratch[4] = sqldb.Float(g.Gr)
		scratch[5] = sqldb.Float(g.Ri)
		scratch[6] = sqldb.Float(g.SigmaGr)
		scratch[7] = sqldb.Float(g.SigmaRi)
		return scratch
	}
	if err := f.galaxyT.BulkInsertFunc(len(keep), rowAt); err != nil {
		return 0, err
	}
	return int64(len(keep)), nil
}

// readGalaxies scans the Galaxy table back into memory (counted I/O), in
// GalaxyColumns' column order.
func (f *DBFinder) readGalaxies() ([]sky.Galaxy, error) {
	cur, err := f.galaxyT.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make([]sky.Galaxy, 0, f.galaxyT.NumRows())
	for cur.Next() {
		row := cur.Row()
		var g sky.Galaxy
		g.ObjID, _ = row[0].AsInt()
		g.Ra, _ = row[1].AsFloat()
		g.Dec, _ = row[2].AsFloat()
		g.I, _ = row[3].AsFloat()
		g.Gr, _ = row[4].AsFloat()
		g.Ri, _ = row[5].AsFloat()
		g.SigmaGr, _ = row[6].AsFloat()
		g.SigmaRi, _ = row[7].AsFloat()
		out = append(out, g)
	}
	return out, cur.Err()
}

// SpZone builds the zone table from the Galaxy table: assigns zone ids and
// clusters the storage on (zoneid, ra). This is the paper's spZone task.
// The table is column-primary: one ordered pass writes the colstore
// segments every reader uses, and no row B+tree is built. It carries the
// galaxies' measured colour errors (zone.ErrorTail) after Zone's ten
// columns, so fBCGCandidate reads its probes from it and never reads
// Galaxy. Under Remote it is built all the same: the stripes answer the
// sweeps, and this table is the probe list.
func (f *DBFinder) SpZone() error {
	gals, err := f.readGalaxies()
	if err != nil {
		return err
	}
	if f.zoneT, err = zone.InstallZoneTableColumnar(f.DB, "Zone", gals, f.ZoneHeight, zone.ErrorTail); err != nil {
		return err
	}
	// SQL joins against fGetNearbyObjEqZd plan into the same zone sweep
	// the Go entry points use.
	zone.RegisterNearbyTVF(f.DB, f.zoneT, f.ZoneHeight)
	return nil
}

// sweepZone answers probes with one sequential sweep of src, a view of
// Zone, on the calling goroutine, or with one Remote.Sweep when Remote is
// set.
// fn sees only the hits each probe's photometric cut wins[probe] contains
// (the rules of zone.SweepOptions.Windows): a local sweep evaluates it in
// the kernel, next to the data; a remote one streams whole neighbourhoods
// (the wire carries no cut), so it filters them here, coordinator-side.
func (f *DBFinder) sweepZone(src zone.Source, probes []zone.Probe, wins []zone.Window, fn func(int, zone.ZoneRow)) error {
	if f.Remote != nil {
		return f.Remote.Sweep(context.Background(), probes, func(pi int, zr zone.ZoneRow) {
			if wins[pi].Contains(zr.ObjID, zr.I, zr.Gr, zr.Ri) {
				fn(pi, zr)
			}
		})
	}
	return zone.Sweep(context.Background(), src, probes, zone.SweepOptions{Workers: 1, Windows: wins}, fn)
}

// MakeCandidates runs fBCGCandidate for every galaxy in area and fills the
// Candidates table (the paper's spMakeCandidates cursor). It also builds
// the zone-clustered candidate table used by fIsCluster — "we do in
// advance what will be required later".
func (f *DBFinder) MakeCandidates(area astro.Box) (int64, error) {
	if f.zoneT == nil {
		return 0, fmt.Errorf("maxbcg: SpZone must run before MakeCandidates")
	}
	if err := f.candT.Truncate(); err != nil {
		return 0, err
	}
	// One counted read of the k-correction table; SQL Server would keep
	// these 40 kB of pages cached exactly the same way.
	if err := f.readKcorr(); err != nil {
		return 0, err
	}
	cands, err := f.stageCandidates(area)
	if err != nil {
		return 0, err
	}
	// The staged candidates land in one bulk load. They arrive in zone
	// order; Candidates is clustered on objid, so sorting them first keeps
	// the load on the streaming path instead of its merge fallback. The
	// table contents are the same either way.
	sortCandidates(cands)
	if err := f.candT.BulkInsertFunc(len(cands), candidateRows(cands)); err != nil {
		return 0, err
	}
	return int64(len(cands)), f.buildCandidateZones()
}

// candidateBandZones is the width, in zones, of the candidate pool's unit
// of work. Page reads do not depend on it (each pass reads each Zone
// segment at most once, however the zones are cut), only load balance
// does: the bench catalog's 312 zones make 20 bands.
const candidateBandZones = 16

// Positions in zone.ColumnarZoneSchema(zone.ErrorTail), the pipeline's
// Zone, of the columns the candidate scan reads.
const (
	zoneObjID, zoneRa, zoneDec = 1, 2, 3
	zoneI, zoneGr, zoneRi      = 7, 8, 9
	zoneSigmaGr, zoneSigmaRi   = 10, 11
)

// survivor is one galaxy that passed the χ² filter: its @friends cut, its
// search radius, and the sweeps ulo..uhi (of the sweep pass) it probes.
type survivor struct {
	g        sky.Galaxy
	win      zone.Window
	rad      float64
	ulo, uhi int
}

// probeHit is a hit in its sweep's emission order.
type probeHit struct {
	probe int32
	friend
}

// sweepHits is one sweep's answer: the survivors it probed (ascending
// indices into the survivor list) and their hits grouped by probe, probe
// j's in emission order at friends[start[j]:start[j+1]].
type sweepHits struct {
	survivors []int32
	start     []int
	friends   []friend
}

// candWorker is one pool worker's scratch, reused across its claims.
type candWorker struct {
	scan    *colstore.Scanner
	rows    []chiRow
	probes  []zone.Probe
	wins    []zone.Window
	hits    []probeHit
	friends []friend
}

// stageCandidates is the zone join behind MakeCandidates: three passes of
// the worker pool over bands of candidateBandZones zones of Zone's column
// segments, under one AcquireView.
//
//  1. Scan: each band reads its segments in area's zone band whose
//     directory ra bounds meet area's ra range, and keeps the χ² survivors
//     among the rows area.Contains, with their @friends cut and radius.
//     In band order they are in (zoneid, ra) order.
//  2. Sweep: each band answers every survivor whose radius reaches it with
//     one sweep of its own zones, the cut pushed down. A survivor's hits,
//     gathered band by band, are those of one sweep of the whole table.
//  3. Finish: each band's survivors recompute their χ² rows and count
//     their friends per redshift.
//
// Bands hold disjoint zones, so each pass reads each Zone segment at most
// once, and the pages read and the staged (survivor) order do not depend
// on Workers. A candidate depends only on its own neighbourhood, so they
// equal the candidates of one neighbour search per galaxy (the in-memory
// Finder's plan). Under Remote the sweep pass is one Remote.Sweep of
// every survivor.
func (f *DBFinder) stageCandidates(area astro.Box) ([]Candidate, error) {
	tv, release := f.zoneT.AcquireView()
	defer release()
	ct := tv.Columnar()
	if ct == nil || !ct.Schema().Equal(zone.ColumnarZoneSchema(zone.ErrorTail)) {
		return nil, fmt.Errorf("maxbcg: table %s is not a column-primary Zone with the error tail", f.zoneT.Name)
	}
	segs := ct.Segments()
	if len(segs) == 0 {
		return nil, nil
	}
	first, last := segs[0].Group, segs[len(segs)-1].Group
	bands := int((last-first)/candidateBandZones) + 1
	band := func(b int) (lo, hi int64) {
		lo = first + int64(b)*candidateBandZones
		return lo, lo + candidateBandZones - 1
	}
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each pass runs on the shared worker pool, worker k with scratch
	// &pool[k], and adds the workers' thread CPU to poolCPU, so Run's
	// cpu(s) column bills the pool's work to the task that spawned it.
	pool := make([]candWorker, workers)

	// Pass 1: scan.
	minZone := int64(astro.ZoneID(area.MinDec, f.ZoneHeight))
	maxZone := int64(astro.ZoneID(area.MaxDec, f.ZoneHeight))
	found := make([][]survivor, bands)
	cpu, err := perfmodel.RunPool(workers, bands, func(k, b int) error {
		w := &pool[k]
		if w.scan == nil {
			w.scan = ct.NewScanner()
		}
		sc := w.scan
		lo, hi := band(b)
		for _, m := range ct.Groups(max(lo, minZone), min(hi, maxZone)).Segments() {
			if m.MaxSort < area.MinRa || m.MinSort > area.MaxRa {
				continue
			}
			if err := sc.Load(m); err != nil {
				return err
			}
			objID, ra, dec := sc.Ints(zoneObjID), sc.Floats(zoneRa), sc.Floats(zoneDec)
			iMag, gr, ri := sc.Floats(zoneI), sc.Floats(zoneGr), sc.Floats(zoneRi)
			sigGr, sigRi := sc.Floats(zoneSigmaGr), sc.Floats(zoneSigmaRi)
			for r := range ra {
				if !area.Contains(ra[r], dec[r]) {
					continue
				}
				g := sky.Galaxy{
					ObjID: objID[r], Ra: ra[r], Dec: dec[r],
					I: iMag[r], Gr: gr[r], Ri: ri[r], SigmaGr: sigGr[r], SigmaRi: sigRi[r],
				}
				if w.rows = chiSquareTable(f.Params, &g, f.Kcorr, w.rows); len(w.rows) > 0 {
					win, rad := friendWindow(f.Params, &g, f.Kcorr, w.rows)
					found[b] = append(found[b], survivor{g: g, win: win, rad: rad})
				}
			}
		}
		return nil
	})
	f.poolCPU.Add(int64(cpu))
	if err != nil {
		return nil, err
	}
	var survivors []survivor
	offs := make([]int, bands+1) // band b's survivors are survivors[offs[b]:offs[b+1]]
	for b, fb := range found {
		survivors = append(survivors, fb...)
		offs[b+1] = len(survivors)
	}

	// Pass 2: sweep. A survivor probes the bands its zones reach; zones
	// beyond Zone's clip to its first or last band, whose sweep builds no
	// window there.
	sweeps := bands
	if f.Remote != nil {
		sweeps = 1
	}
	answers := make([]sweepHits, sweeps)
	bandOf := func(z int) int { return int((min(max(int64(z), first), last) - first) / candidateBandZones) }
	for s := range survivors {
		sv := &survivors[s]
		if f.Remote == nil {
			zlo, zhi := astro.ZoneRange(sv.g.Dec, sv.rad, f.ZoneHeight)
			sv.ulo, sv.uhi = bandOf(zlo), bandOf(zhi)
		}
		for u := sv.ulo; u <= sv.uhi; u++ {
			answers[u].survivors = append(answers[u].survivors, int32(s))
		}
	}
	cpu, err = perfmodel.RunPool(workers, sweeps, func(k, u int) error {
		w, a := &pool[k], &answers[u]
		w.probes, w.wins, w.hits = w.probes[:0], w.wins[:0], w.hits[:0]
		for _, s := range a.survivors {
			sv := &survivors[s]
			w.probes = append(w.probes, zone.Probe{Ra: sv.g.Ra, Dec: sv.g.Dec, R: sv.rad})
			w.wins = append(w.wins, sv.win)
		}
		lo, hi := band(u)
		err := f.sweepZone(zone.Columnar(ct.Groups(lo, hi), f.ZoneHeight), w.probes, w.wins, func(pi int, zr zone.ZoneRow) {
			w.hits = append(w.hits, probeHit{int32(pi), friend{zr.Distance, zr.I, zr.Gr, zr.Ri}})
		})
		a.start, a.friends = groupByProbe(w.hits, len(a.survivors))
		return err
	})
	f.poolCPU.Add(int64(cpu))
	if err != nil {
		return nil, err
	}

	// Pass 3: finish. A slot whose NGal stays 0 holds no candidate (a
	// candidate counts itself and at least one neighbour).
	out := make([]Candidate, len(survivors))
	cpu, err = perfmodel.RunPool(workers, bands, func(k, b int) error {
		w := &pool[k]
		for s := offs[b]; s < offs[b+1]; s++ {
			sv := &survivors[s]
			w.rows = chiSquareTable(f.Params, &sv.g, f.Kcorr, w.rows)
			w.friends = w.friends[:0]
			for u := sv.ulo; u <= sv.uhi; u++ {
				a := &answers[u]
				j, _ := slices.BinarySearch(a.survivors, int32(s))
				w.friends = append(w.friends, a.friends[a.start[j]:a.start[j+1]]...)
			}
			out[s], _ = finishCandidate(f.Params, &sv.g, f.Kcorr, w.rows, w.friends)
		}
		return nil
	})
	f.poolCPU.Add(int64(cpu))
	cands := out[:0]
	for _, c := range out {
		if c.NGal > 0 {
			cands = append(cands, c)
		}
	}
	return cands, err
}

// groupByProbe counting-sorts one sweep's hits by probe, keeping each
// probe's in emission order: probe j's land at friends[start[j]:start[j+1]].
func groupByProbe(hits []probeHit, probes int) (start []int, friends []friend) {
	// After the prefix sum start[j+1] is where probe j's first hit goes;
	// placing them moves it on to where probe j+1's first goes.
	start = make([]int, probes+2)
	for _, h := range hits {
		start[h.probe+2]++
	}
	for j := 2; j < len(start); j++ {
		start[j] += start[j-1]
	}
	friends = make([]friend, len(hits))
	for _, h := range hits {
		friends[start[h.probe+1]] = h.friend
		start[h.probe+1]++
	}
	return start[:probes+1], friends
}

// candidateRows is the BulkInsertFunc generator over staged candidates: one
// scratch row in the candidate-schema column order. A task stages its
// output as typed structs and never holds a []sqldb.Value per row.
func candidateRows(cs []Candidate) func(i int) []sqldb.Value {
	scratch := make([]sqldb.Value, len(candidateColumns()))
	return func(i int) []sqldb.Value {
		c := &cs[i]
		scratch[0] = sqldb.Int(c.ObjID)
		scratch[1] = sqldb.Float(c.Ra)
		scratch[2] = sqldb.Float(c.Dec)
		scratch[3] = sqldb.Float(c.Z)
		scratch[4] = sqldb.Float(c.I)
		scratch[5] = sqldb.Int(int64(c.NGal))
		scratch[6] = sqldb.Float(c.Chi2)
		return scratch
	}
}

// buildCandidateZones stores the candidates as CandZone, clustered by
// (zoneid, ra) for fIsCluster's sweep — "we do in advance what will be
// required later". Like Zone it is column-primary: a colstore.Builder
// takes the rows in key order (ties in Candidates scan order), each unit
// vector computed once, and LoadColumnar publishes the segments.
func (f *DBFinder) buildCandidateZones() error {
	_ = f.DB.DropTable("CandZone", true)
	f.candZT = nil
	cands, err := f.readCandidates(f.candT)
	if err != nil {
		return err
	}
	zids := make([]int64, len(cands))
	order := make([]int, len(cands))
	for i := range cands {
		zids[i] = int64(astro.ZoneID(cands[i].Dec, f.ZoneHeight))
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if zids[i] != zids[j] {
			return zids[i] < zids[j]
		}
		return storage.Float64Key(cands[i].Ra) < storage.Float64Key(cands[j].Ra)
	})
	// Zone's position columns, which zone.Sweep reads, then the payload.
	cols := append(zone.ZoneTableColumns()[:7],
		sqldb.Column{Name: "z", Type: sqldb.TFloat},
		sqldb.Column{Name: "i", Type: sqldb.TFloat},
		sqldb.Column{Name: "ngal", Type: sqldb.TInt},
		sqldb.Column{Name: "chi2", Type: sqldb.TFloat},
	)
	t, err := f.DB.CreateTableClustered("CandZone", cols, []string{"zoneid", "ra"})
	if err != nil {
		return err
	}
	sch := make(colstore.Schema, len(cols))
	for i, c := range cols {
		sch[i] = colstore.Column{Name: c.Name, Kind: colstore.Float64}
		if c.Type == sqldb.TInt {
			sch[i].Kind = colstore.Int64
		}
	}
	cb, err := colstore.NewBuilder(f.DB.Pool(), sch, 0, 2)
	if err != nil {
		return err
	}
	var (
		ints   [3]int64   // zoneid, objid, ngal
		floats [8]float64 // ra, dec, cx, cy, cz, z, i, chi2
	)
	for _, i := range order {
		c := &cands[i]
		v := astro.UnitVector(c.Ra, c.Dec)
		ints = [3]int64{zids[i], c.ObjID, int64(c.NGal)}
		floats = [8]float64{c.Ra, c.Dec, v.X, v.Y, v.Z, c.Z, c.I, c.Chi2}
		if err := cb.Add(ints[:], floats[:]); err != nil {
			return err
		}
	}
	ct, err := cb.Finish()
	if err != nil {
		return err
	}
	if err := t.LoadColumnar(ct); err != nil {
		return err
	}
	f.candZT = t
	return nil
}

// readKcorr scans the Kcorr table (I/O accounting for the cross join).
func (f *DBFinder) readKcorr() error {
	cur, err := f.kcorrT.Scan()
	if err != nil {
		return err
	}
	defer cur.Close()
	for cur.Next() {
	}
	return cur.Err()
}

// MakeClusters screens the Candidates table with fIsCluster and fills the
// Clusters table with the candidates inside target that are the most likely
// centre of their neighbourhood (the paper's spMakeClusters). One sweep
// over CandZone answers every in-target candidate at its 1 Mpc radius;
// hits take their z and chi2 from the Candidates rows, read once in objid
// order. The sweep is local even under Remote: CandZone lives here.
func (f *DBFinder) MakeClusters(target astro.Box) (int64, error) {
	if f.candZT == nil {
		return 0, fmt.Errorf("maxbcg: MakeCandidates must run before MakeClusters")
	}
	if err := f.clusterT.Truncate(); err != nil {
		return 0, err
	}
	cands, err := f.readCandidates(f.candT)
	if err != nil {
		return 0, err
	}
	var (
		in     []int // the Candidates row of each probe
		probes []zone.Probe
		tests  []centreTest
	)
	for i := range cands {
		c := &cands[i]
		if !target.Contains(c.Ra, c.Dec) {
			continue
		}
		ct, r, err := newCentreTest(f.Params, c, f.Kcorr)
		if err != nil {
			return 0, err
		}
		in = append(in, i)
		probes = append(probes, zone.Probe{Ra: c.Ra, Dec: c.Dec, R: r})
		tests = append(tests, ct)
	}
	err = zone.Sweep(context.Background(), zone.TableSource(f.candZT, f.ZoneHeight), probes,
		zone.SweepOptions{Workers: 1}, func(pi int, zr zone.ZoneRow) {
			// A CandZone row whose candidate has left Candidates since
			// MakeCandidates is no rival.
			j := sort.Search(len(cands), func(j int) bool { return cands[j].ObjID >= zr.ObjID })
			if j < len(cands) && cands[j].ObjID == zr.ObjID {
				tests[pi].see(cands[j].Z, cands[j].Chi2)
			}
		})
	if err != nil {
		return 0, err
	}
	var clusters []Candidate
	for pi := range tests {
		if tests[pi].centre() {
			clusters = append(clusters, cands[in[pi]])
		}
	}
	if err := f.clusterT.BulkInsertFunc(len(clusters), candidateRows(clusters)); err != nil {
		return 0, err
	}
	return int64(len(clusters)), nil
}

// MakeMembers fills ClusterGalaxiesMetric for every cluster (the paper's
// spMakeGalaxiesMetric). Every cluster's membership window joins against
// the zone table in one sweep; the emitted rows match ClusterMembers run
// per cluster exactly.
func (f *DBFinder) MakeMembers() (int64, error) {
	if err := f.memberT.Truncate(); err != nil {
		return 0, err
	}
	clusters, err := f.readCandidates(f.clusterT)
	if err != nil {
		return 0, err
	}
	lists, err := f.clusterMembersBatch(clusters)
	if err != nil {
		return 0, err
	}
	var all []Member
	for _, members := range lists {
		all = append(all, members...)
	}
	scratch := make([]sqldb.Value, 3)
	err = f.memberT.BulkInsertFunc(len(all), func(i int) []sqldb.Value {
		m := &all[i]
		scratch[0] = sqldb.Int(m.ClusterObjID)
		scratch[1] = sqldb.Int(m.GalaxyObjID)
		scratch[2] = sqldb.Float(m.Distance)
		return scratch
	})
	if err != nil {
		return 0, err
	}
	return int64(len(all)), nil
}

// clusterMembersBatch answers every cluster's membership search with one
// batched zone join, applying ClusterMembers' exact filters per cluster.
func (f *DBFinder) clusterMembersBatch(clusters []Candidate) ([][]Member, error) {
	probes := make([]zone.Probe, len(clusters))
	rads := make([]float64, len(clusters))
	// The magnitude and colour cuts travel into the sweep; the r200 cut
	// needs the distance, which the sweep computes only for contained rows.
	wins := make([]zone.Window, len(clusters))
	lists := make([][]Member, len(clusters))
	for i, c := range clusters {
		k, ok := f.Kcorr.LookupExact(c.Z)
		if !ok {
			return nil, fmt.Errorf("maxbcg: cluster %d has untabulated redshift %g", c.ObjID, c.Z)
		}
		rads[i] = k.Radius * sky.R200Mpc(float64(c.NGal))
		wins[i] = memberWindow(f.Params, &clusters[i], &k)
		probes[i] = zone.Probe{Ra: c.Ra, Dec: c.Dec, R: rads[i]}
		lists[i] = []Member{{ClusterObjID: c.ObjID, GalaxyObjID: c.ObjID, Distance: 0}}
	}
	err := f.sweepZone(zone.TableSource(f.zoneT, f.ZoneHeight), probes, wins, func(pi int, zr zone.ZoneRow) {
		if zr.Distance >= rads[pi] {
			return
		}
		lists[pi] = append(lists[pi], Member{ClusterObjID: clusters[pi].ObjID, GalaxyObjID: zr.ObjID, Distance: zr.Distance})
	})
	if err != nil {
		return nil, err
	}
	return lists, nil
}

// TaskReport is the per-task measurement block of one DBFinder run: the
// rows of the paper's Table 1 for one server.
type TaskReport struct {
	Tasks    []perfmodel.TaskStats // spZone, fBCGCandidate, fIsCluster (+ members)
	Galaxies int64                 // galaxies on this partition
}

// Total sums the task rows.
func (r TaskReport) Total() perfmodel.TaskStats {
	t := perfmodel.TaskStats{Name: "total"}
	for _, s := range r.Tasks {
		t.Elapsed += s.Elapsed
		t.CPU += s.CPU
		t.IO += s.IO
	}
	return t
}

// Run executes the full pipeline for target T against the already-imported
// Galaxy table, measuring each task. includeMembers adds the member
// retrieval step (not part of the paper's Table 1, reported separately).
// The CPU column sums the calling OS thread's clock with the candidate
// pool's worker threads' clocks, so it is a true total under Workers > 1
// — like SQL Server's per-statement CPU, where parallel plan branches all
// bill the statement and cpu(s) > elapse(s) signals parallelism.
func (f *DBFinder) Run(target astro.Box, includeMembers bool) (*Result, TaskReport, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	report := TaskReport{Galaxies: f.galaxyT.NumRows()}
	pool := f.DB.Pool()

	measure := func(name string, fn func() error) error {
		ioBefore := pool.Stats()
		start := time.Now()
		cpuStart := perfmodel.ThreadCPU()
		poolStart := f.poolCPU.Load()
		err := fn()
		report.Tasks = append(report.Tasks, perfmodel.TaskStats{
			Name:    name,
			Elapsed: time.Since(start),
			CPU:     perfmodel.ThreadCPU() - cpuStart + time.Duration(f.poolCPU.Load()-poolStart),
			IO:      pool.Stats().Sub(ioBefore).Total(),
		})
		return err
	}

	area := target.Expand(f.Params.BufferDeg)
	if err := measure("spZone", f.SpZone); err != nil {
		return nil, report, err
	}
	if err := measure("fBCGCandidate", func() error {
		_, err := f.MakeCandidates(area)
		return err
	}); err != nil {
		return nil, report, err
	}
	if err := measure("fIsCluster", func() error {
		_, err := f.MakeClusters(target)
		return err
	}); err != nil {
		return nil, report, err
	}
	if includeMembers {
		if err := measure("fGetClusterGalaxiesMetric", func() error {
			_, err := f.MakeMembers()
			return err
		}); err != nil {
			return nil, report, err
		}
	}
	res, err := f.Result()
	return res, report, err
}

// readCandidates scans a candidate-schema table back into memory in
// clustered (objid) order.
func (f *DBFinder) readCandidates(t *sqldb.Table) ([]Candidate, error) {
	cur, err := t.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []Candidate
	for cur.Next() {
		row := cur.Row()
		var c Candidate
		c.ObjID, _ = row[0].AsInt()
		c.Ra, _ = row[1].AsFloat()
		c.Dec, _ = row[2].AsFloat()
		c.Z, _ = row[3].AsFloat()
		c.I, _ = row[4].AsFloat()
		ngal, _ := row[5].AsInt()
		c.NGal = int(ngal)
		c.Chi2, _ = row[6].AsFloat()
		out = append(out, c)
	}
	return out, cur.Err()
}

// Result reads the output tables back into a Result ordered by ObjID.
func (f *DBFinder) Result() (*Result, error) {
	res := &Result{}
	var err error
	if res.Candidates, err = f.readCandidates(f.candT); err != nil {
		return nil, err
	}
	if res.Clusters, err = f.readCandidates(f.clusterT); err != nil {
		return nil, err
	}
	cur, err := f.memberT.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	for cur.Next() {
		row := cur.Row()
		var m Member
		m.ClusterObjID, _ = row[0].AsInt()
		m.GalaxyObjID, _ = row[1].AsInt()
		m.Distance, _ = row[2].AsFloat()
		res.Members = append(res.Members, m)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	sortCandidates(res.Candidates)
	sortCandidates(res.Clusters)
	sortMembers(res.Members)
	return res, nil
}

func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(a, b int) bool { return cs[a].ObjID < cs[b].ObjID })
}

func sortMembers(ms []Member) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].ClusterObjID != ms[b].ClusterObjID {
			return ms[a].ClusterObjID < ms[b].ClusterObjID
		}
		return ms[a].GalaxyObjID < ms[b].GalaxyObjID
	})
}
