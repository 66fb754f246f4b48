package maxbcg

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astro"
	"repro/internal/colstore"
	"repro/internal/perfmodel"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// A RemoteSweeper answers a probe batch under zone.Sweep's exact
// contract (hits per probe in (zone asc, ra asc) order, fn never
// concurrent, clean prefix by zone on error) from somewhere other than
// a local zone table — fed.Coordinator scatters it across stripe
// workers. It is the single seam the federation needs in the pipeline:
// every batched search already funnels through one sweep call.
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
	// Workers sizes the pool that answers fBCGCandidate's probe batches:
	// 0 = one worker per CPU. Each worker runs a batch's sequential sweep
	// and its per-galaxy counting while the calling goroutine scans ahead
	// and fills the next batch; at 1 the two alternate. Every sweep the
	// finder runs is sequential (zone.SweepOptions{Workers: 1}), and the
	// value also sizes the fGetNearbyObjEqZd TVF's sweep pool that SpZone
	// registers for SQL joins. Output is bit-identical at every setting.
	Workers int
	// Remote, when set, answers the batched zone sweeps instead of a
	// local zone table: SpZone becomes a no-op (the zone table lives
	// sharded across stripe workers — see internal/fed) and every
	// probe batch goes through Remote.Sweep. The sweeps' contract is
	// unchanged — same hits, same order — so the pipeline's output is
	// bit-identical to the local run.
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

// decodeGalaxy reads one Galaxy-schema row (see GalaxyColumns for the
// column order every scan site shares).
func decodeGalaxy(row []sqldb.Value) sky.Galaxy {
	var g sky.Galaxy
	g.ObjID, _ = row[0].AsInt()
	g.Ra, _ = row[1].AsFloat()
	g.Dec, _ = row[2].AsFloat()
	g.I, _ = row[3].AsFloat()
	g.Gr, _ = row[4].AsFloat()
	g.Ri, _ = row[5].AsFloat()
	g.SigmaGr, _ = row[6].AsFloat()
	g.SigmaRi, _ = row[7].AsFloat()
	return g
}

// readGalaxies scans the Galaxy table back into memory (counted I/O).
func (f *DBFinder) readGalaxies() ([]sky.Galaxy, error) {
	cur, err := f.galaxyT.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make([]sky.Galaxy, 0, f.galaxyT.NumRows())
	for cur.Next() {
		out = append(out, decodeGalaxy(cur.Row()))
	}
	return out, cur.Err()
}

// SpZone builds the zone table from the Galaxy table: assigns zone ids and
// clusters the storage on (zoneid, ra). This is the paper's spZone task.
// The table is column-primary: one ordered pass writes the colstore
// segments every reader uses, and no row B+tree is built.
func (f *DBFinder) SpZone() error {
	if f.Remote != nil {
		// Federated runs own no zone table: the stripes built theirs at
		// boot (raw slice + buffer-zone exchange), which *is* spZone,
		// executed data-proximate. Nothing to do coordinator-side.
		return nil
	}
	gals, err := f.readGalaxies()
	if err != nil {
		return err
	}
	if f.zoneT, err = zone.InstallZoneTableColumnar(f.DB, "Zone", gals, f.ZoneHeight); err != nil {
		return err
	}
	// The TVF's batch path shares the finder's worker pool, so SQL joins
	// against fGetNearbyObjEqZd plan into the same parallel sweep the Go
	// entry points use.
	zone.RegisterNearbyTVFWorkers(f.DB, f.zoneT, f.ZoneHeight, f.Workers)
	return nil
}

// sweepZone answers one probe batch against the zone table's column
// segments with one sequential sweep on the calling goroutine; the sweep
// pins the table version it reads, so a re-install cannot reclaim the
// segments under it. fn sees
// only the hits each probe's photometric cut wins[probe] contains (the
// rules of zone.SweepOptions.Windows): a local sweep evaluates it in the
// kernel, next to the data; a remote one streams whole neighbourhoods
// (the wire carries no cut), so it filters them here, coordinator-side.
func (f *DBFinder) sweepZone(probes []zone.Probe, wins []zone.Window, fn func(int, zone.ZoneRow)) error {
	if f.Remote != nil {
		return f.Remote.Sweep(context.Background(), probes, func(pi int, zr zone.ZoneRow) {
			if wins[pi].Contains(zr.ObjID, zr.I, zr.Gr, zr.Ri) {
				fn(pi, zr)
			}
		})
	}
	return zone.Sweep(context.Background(), zone.TableSource(f.zoneT, f.ZoneHeight), probes,
		zone.SweepOptions{Workers: 1, Windows: wins}, fn)
}

// MakeCandidates runs fBCGCandidate for every galaxy in area and fills the
// Candidates table (the paper's spMakeCandidates cursor). It also builds
// the zone-clustered candidate table used by fIsCluster — "we do in
// advance what will be required later".
func (f *DBFinder) MakeCandidates(area astro.Box) (int64, error) {
	if f.zoneT == nil && f.Remote == nil {
		return 0, fmt.Errorf("maxbcg: SpZone must run before MakeCandidates")
	}
	if err := f.candT.Truncate(); err != nil {
		return 0, err
	}
	// One counted read of the k-correction table; SQL Server would keep
	// these 40 kB of pages cached exactly the same way.
	if _, err := f.readKcorr(); err != nil {
		return 0, err
	}
	cands, err := f.makeCandidatesBatch(area)
	if err != nil {
		return 0, err
	}
	// The candidates staged per batch land in one bulk load; the table
	// contents and rowid order match an insert inside the loop.
	if err := f.candT.BulkInsertFunc(len(cands), candidateRows(cands)); err != nil {
		return 0, err
	}
	return int64(len(cands)), f.buildCandidateZones()
}

// candidateBatchSize bounds how many probe galaxies buffer per sweep:
// large enough to amortize the per-zone descents across many probes, small
// enough to keep the buffered friends lists modest.
const candidateBatchSize = 512

// candProbe is one galaxy awaiting its batched neighbour search: the χ²
// survivors, the friends the sweep delivers, and the candidate the worker
// finishes from them (valid when isCand).
type candProbe struct {
	g       sky.Galaxy
	rows    []chiRow
	friends []Neighbor
	cand    Candidate
	isCand  bool
}

// candBatch is one batch state of the candidate pool: n probe galaxies
// and the sweep probes and @friends cuts the worker derives from them
// (probes and wins run parallel to slots). States outlive their batches:
// a slot takes over the rows and friends backing arrays of its previous
// occupant, so from the second round on these lists allocate only where
// one outgrows every earlier occupant's.
type candBatch struct {
	seq    int  // scan-order position of the batch the state holds
	done   bool // answered and handed back, not yet committed
	err    error
	n      int // slots in use
	slots  [candidateBatchSize]candProbe
	probes [candidateBatchSize]zone.Probe
	wins   [candidateBatchSize]zone.Window
}

// makeCandidatesBatch is the batched zone join. The calling goroutine
// scans Galaxy and buffers the χ² survivors into batches of
// candidateBatchSize; a pool of workers answers each full batch with one
// sequential sweep (the @friends cut, wins, keeps under 2% of the
// neighbourhood, so it travels into the sweep and only friends come back)
// and runs the per-redshift counting per galaxy. Batches are committed in
// scan order, so the staged candidates are identical to one neighbour
// search per galaxy (the in-memory Finder's plan) at every worker count,
// and the sweeps are the same ones with or without the pool.
//
// The pool owns exactly one batch state per worker, which bounds the
// buffered friends lists: the scan refills a state only once its batch
// is committed, so with one worker the scan and the sweep alternate. A
// failed batch stops the scan; the earliest failed batch's error is
// returned once every worker has exited.
func (f *DBFinder) makeCandidatesBatch(area astro.Box) ([]Candidate, error) {
	cur, err := f.galaxyT.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	states := make([]candBatch, workers)
	free := make(chan *candBatch, workers)
	work := make(chan *candBatch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go f.candidateWorker(work, free, &wg)
	}

	var (
		cands                 []Candidate
		firstErr              error
		dispatched, committed int
	)
	// commit files the next batch in scan order, which must be done, and
	// empties its state.
	commit := func(b *candBatch) {
		switch {
		case b.err != nil:
			if firstErr == nil {
				firstErr = b.err
			}
		case firstErr == nil:
			for i := range b.slots[:b.n] {
				if s := &b.slots[i]; s.isCand {
					cands = append(cands, s.cand)
				}
			}
		}
		committed++
		b.done, b.err, b.n = false, nil, 0
	}
	// next returns the done state of the next batch in scan order, or nil
	// while its worker still holds it.
	next := func() *candBatch {
		for i := range states {
			if b := &states[i]; b.done && b.seq == committed {
				return b
			}
		}
		return nil
	}
	// acquire returns a state to fill: a never-used one, else the next
	// batch's once its worker hands it back.
	acquire := func() *candBatch {
		if dispatched < workers {
			return &states[dispatched]
		}
		for {
			if b := next(); b != nil {
				commit(b)
				return b
			}
			(<-free).done = true
		}
	}
	b := acquire()
	dispatch := func() {
		b.seq = dispatched
		dispatched++
		work <- b
		b = acquire()
	}
	var scratch []chiRow // grows once to the widest χ² table of the scan
	for firstErr == nil && cur.Next() {
		g := decodeGalaxy(cur.Row())
		if !area.Contains(g.Ra, g.Dec) {
			continue
		}
		rows := chiSquareTable(f.Params, &g, f.Kcorr, scratch)
		scratch = rows
		if len(rows) == 0 {
			continue
		}
		s := &b.slots[b.n]
		b.n++
		s.g = g
		s.rows = append(s.rows[:0], rows...)
		s.friends = s.friends[:0]
		if b.n == candidateBatchSize {
			dispatch()
		}
	}
	scanErr := cur.Err()
	if firstErr == nil && scanErr == nil && b.n > 0 {
		dispatch()
	}
	close(work)
	wg.Wait()
	close(free)
	for b := range free {
		b.done = true
	}
	for committed < dispatched {
		commit(next())
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return cands, scanErr
}

// candidateWorker answers batches from work until it closes, handing each
// state back through free. It pins its goroutine to an OS thread for its
// whole run and adds the thread's CPU time to poolCPU before it exits, so
// Run's cpu(s) column bills the pool's work to the task that spawned it.
func (f *DBFinder) candidateWorker(work <-chan *candBatch, free chan<- *candBatch, wg *sync.WaitGroup) {
	defer wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := perfmodel.ThreadCPU()
	defer func() { f.poolCPU.Add(int64(perfmodel.ThreadCPU() - start)) }()
	for b := range work {
		b.err = f.answerBatch(b)
		free <- b
	}
}

// answerBatch derives one batch's probes and @friends cuts, runs its
// sweep and finishes each slot's candidate.
func (f *DBFinder) answerBatch(b *candBatch) error {
	for i := range b.slots[:b.n] {
		s := &b.slots[i]
		var rad float64
		b.wins[i], rad = friendWindow(f.Params, &s.g, f.Kcorr, s.rows)
		b.probes[i] = zone.Probe{Ra: s.g.Ra, Dec: s.g.Dec, R: rad}
	}
	err := f.sweepZone(b.probes[:b.n], b.wins[:b.n], func(pi int, zr zone.ZoneRow) {
		s := &b.slots[pi]
		s.friends = append(s.friends, Neighbor{
			ObjID: zr.ObjID, Ra: zr.Ra, Dec: zr.Dec,
			Distance: zr.Distance, I: zr.I, Gr: zr.Gr, Ri: zr.Ri,
		})
	})
	if err != nil {
		return err
	}
	for i := range b.slots[:b.n] {
		s := &b.slots[i]
		s.cand, s.isCand = finishCandidate(f.Params, &s.g, f.Kcorr, s.rows, s.friends)
	}
	return nil
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

// buildCandidateZones clusters the candidates by (zoneid, ra) so fIsCluster
// can range-scan them. The candidates are handed over already in that
// order, ties by candT scan position, so the load streams into the tree
// with nothing to sort: the rows go straight into a natively clustered
// table in one bulk load.
func (f *DBFinder) buildCandidateZones() error {
	_ = f.DB.DropTable("CandZone", true)
	cols := []sqldb.Column{
		{Name: "zoneid", Type: sqldb.TInt},
		{Name: "ra", Type: sqldb.TFloat},
		{Name: "dec", Type: sqldb.TFloat},
		{Name: "objid", Type: sqldb.TInt},
		{Name: "z", Type: sqldb.TFloat},
		{Name: "i", Type: sqldb.TFloat},
		{Name: "ngal", Type: sqldb.TInt},
		{Name: "chi2", Type: sqldb.TFloat},
	}
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
		return cands[i].Ra < cands[j].Ra
	})
	scratch := make([]sqldb.Value, len(cols))
	rowAt := func(i int) []sqldb.Value {
		c := &cands[order[i]]
		scratch[candZoneID] = sqldb.Int(zids[order[i]])
		scratch[candRa] = sqldb.Float(c.Ra)
		scratch[candDec] = sqldb.Float(c.Dec)
		scratch[candObjID] = sqldb.Int(c.ObjID)
		scratch[candZ] = sqldb.Float(c.Z)
		scratch[candI] = sqldb.Float(c.I)
		scratch[candNGal] = sqldb.Int(int64(c.NGal))
		scratch[candChi2] = sqldb.Float(c.Chi2)
		return scratch
	}
	t, err := f.DB.CreateTableClustered("CandZone", cols, []string{"zoneid", "ra"})
	if err != nil {
		return err
	}
	if err := t.BulkInsertFunc(len(cands), rowAt); err != nil {
		return err
	}
	// The candidate table gets its column-major projection through the
	// SQL DDL path — the same statement a CasJobs user would run — so
	// fIsCluster's candidate searches scan packed float arrays instead of
	// decoding rows per probe.
	if _, err := f.DB.Exec("CREATE COLUMNAR PROJECTION ON CandZone"); err != nil {
		return err
	}
	f.candZT = t
	return nil
}

// readKcorr scans the Kcorr table (I/O accounting for the cross join).
func (f *DBFinder) readKcorr() (int, error) {
	cur, err := f.kcorrT.Scan()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		n++
	}
	return n, cur.Err()
}

// CandZone schema indices, shared by the row load and the columnar scan.
const (
	candZoneID = iota
	candRa
	candDec
	candObjID
	candZ
	candI
	candNGal
	candChi2
)

// dbCandSearcher answers fIsCluster's candidate searches over CandZone's
// column-major projection (CREATE COLUMNAR PROJECTION ON CandZone): each
// window scans packed float arrays with directory-driven page skipping, no
// per-probe row decode.
type dbCandSearcher struct {
	height float64
	ct     *colstore.Table
	scan   *colstore.Scanner
}

func newCandSearcher(t *sqldb.Table, height float64) *dbCandSearcher {
	ct := t.Columnar()
	return &dbCandSearcher{height: height, ct: ct, scan: ct.NewScanner()}
}

// SearchCandidates implements CandidateSearcher via zone window scans over
// the clustered candidate table.
func (s *dbCandSearcher) SearchCandidates(raDeg, decDeg, rDeg float64, visit func(Candidate)) error {
	if rDeg < 0 {
		return nil
	}
	center := astro.UnitVector(raDeg, decDeg)
	r2 := astro.Chord2FromAngle(rDeg)
	minZ, maxZ := astro.ZoneRange(decDeg, rDeg, s.height)
	cov := astro.NewRaCover(decDeg, rDeg)
	for z := minZ; z <= maxZ; z++ {
		x := cov.HalfWidth(z, s.height)
		segs, ns := astro.RaWindows(raDeg, x)
		for si := 0; si < ns; si++ {
			if err := s.searchColumnar(z, segs[si][0], segs[si][1], center, r2, visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchColumnar is the no-decode window scan: the zone's segment run is
// pruned through the directory's min/max-ra bounds, the in-window rows are
// found by binary search on the packed ra array, and only hits touch the
// tail columns (which decode lazily per segment).
func (s *dbCandSearcher) searchColumnar(z int, lo, hi float64, center astro.Vec3, r2 float64, visit func(Candidate)) error {
	for _, m := range s.ct.GroupSegments(int64(z)) {
		if m.MaxSort < lo {
			continue
		}
		if m.MinSort > hi {
			break
		}
		if err := s.scan.Load(m); err != nil {
			return err
		}
		ra := s.scan.Floats(candRa)
		for r := sort.SearchFloat64s(ra, lo); r < len(ra) && ra[r] <= hi; r++ {
			dec := s.scan.Floats(candDec)[r]
			if center.Chord2(astro.UnitVector(ra[r], dec)) >= r2 {
				continue
			}
			var c Candidate
			c.Ra, c.Dec = ra[r], dec
			c.ObjID = s.scan.Ints(candObjID)[r]
			c.Z = s.scan.Floats(candZ)[r]
			c.I = s.scan.Floats(candI)[r]
			c.NGal = int(s.scan.Ints(candNGal)[r])
			c.Chi2 = s.scan.Floats(candChi2)[r]
			visit(c)
		}
	}
	return nil
}

// MakeClusters screens the Candidates table with fIsCluster and fills the
// Clusters table with the candidates inside target that are the most likely
// centre of their neighbourhood (the paper's spMakeClusters).
func (f *DBFinder) MakeClusters(target astro.Box) (int64, error) {
	if f.candZT == nil {
		return 0, fmt.Errorf("maxbcg: MakeCandidates must run before MakeClusters")
	}
	if err := f.clusterT.Truncate(); err != nil {
		return 0, err
	}
	cs := newCandSearcher(f.candZT, f.ZoneHeight)
	cur, err := f.candT.Scan()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	var clusters []Candidate
	for cur.Next() {
		row := cur.Row()
		var c Candidate
		c.ObjID, _ = row[0].AsInt()
		c.Ra, _ = row[1].AsFloat()
		c.Dec, _ = row[2].AsFloat()
		if !target.Contains(c.Ra, c.Dec) {
			continue
		}
		c.Z, _ = row[3].AsFloat()
		c.I, _ = row[4].AsFloat()
		ngal, _ := row[5].AsInt()
		c.NGal = int(ngal)
		c.Chi2, _ = row[6].AsFloat()
		isC, err := IsCluster(f.Params, c, f.Kcorr, cs)
		if err != nil {
			return 0, err
		}
		if !isC {
			continue
		}
		clusters = append(clusters, c)
	}
	if err := cur.Err(); err != nil {
		return 0, err
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
	err := f.sweepZone(probes, wins, func(pi int, zr zone.ZoneRow) {
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
	sort.Slice(res.Members, func(a, b int) bool {
		if res.Members[a].ClusterObjID != res.Members[b].ClusterObjID {
			return res.Members[a].ClusterObjID < res.Members[b].ClusterObjID
		}
		return res.Members[a].GalaxyObjID < res.Members[b].GalaxyObjID
	})
	return res, nil
}

func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(a, b int) bool { return cs[a].ObjID < cs[b].ObjID })
}
