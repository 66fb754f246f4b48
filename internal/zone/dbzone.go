package zone

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/astro"
	"repro/internal/colstore"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// DB-backed zone machinery: the same structures as the in-memory Index, but
// stored as a sqldb table with a clustered (zoneid, ra) key so every access
// is buffer-pool I/O the benchmark harness can count — the paper's Table 1
// reports exactly this per-task I/O.

// ZoneTableColumns is the schema of a Zone table: the paper's Zone view
// (zone number, object id, position, unit vector) plus the photometry
// columns MaxBCG filters on. Carrying the filter columns in the zone table
// is the denormalisation Gray et al.'s zone report recommends; it removes a
// per-neighbour primary-key join against Galaxy from the hot loop. A tail,
// when given, follows the ten columns.
func ZoneTableColumns(tail ...Tail) []sqldb.Column {
	cols := []sqldb.Column{
		{Name: "zoneid", Type: sqldb.TInt},
		{Name: "objid", Type: sqldb.TInt},
		{Name: "ra", Type: sqldb.TFloat},
		{Name: "dec", Type: sqldb.TFloat},
		{Name: "cx", Type: sqldb.TFloat},
		{Name: "cy", Type: sqldb.TFloat},
		{Name: "cz", Type: sqldb.TFloat},
		{Name: "i", Type: sqldb.TFloat},
		{Name: "gr", Type: sqldb.TFloat},
		{Name: "ri", Type: sqldb.TFloat},
	}
	if slices.Contains(tail, ErrorTail) {
		cols = append(cols,
			sqldb.Column{Name: "sigma_gr", Type: sqldb.TFloat},
			sqldb.Column{Name: "sigma_ri", Type: sqldb.TFloat},
		)
	}
	return cols
}

// A Tail is a run of payload columns a Zone table carries after
// ZoneTableColumns' ten. Readers find Zone's columns where they always
// are: the sweep, SearchTable and SQL read a tailed Zone as they read
// Zone.
type Tail int

// ErrorTail is sigma_gr, sigma_ri: each galaxy's measured g-r and r-i
// errors, which fBCGCandidate's χ² weights by. They are measured, so no
// reader can derive them from Zone's other columns. The MaxBCG pipeline's
// Zone carries them so its candidate scan reads the probes from Zone.
const ErrorTail Tail = 1

// InstallZoneTableColumnar is the paper's spZone task: it creates (or
// replaces) tableName in db, loads the galaxies, assigns zone ids, and
// stores the rows once, clustered on (zoneid, ra), as colstore segment
// pages (one zone per segment run, packed float arrays, per-segment
// min/max ra in the directory). The table is column-primary
// (sqldb.Table.LoadColumnar): it has no row B+tree, and every reader —
// SQL, SearchTable, the fGetNearbyObjEqZd TVF and Sweep — reads the
// segments, in clustered order. Columnar() returns them for the batched
// sweeps. A tail (ErrorTail) appends its columns to every row; it widens
// each row by 8 bytes a column, so the segments take more pages. gals is
// only read, never reordered or retained.
func InstallZoneTableColumnar(db *sqldb.DB, tableName string, gals []sky.Galaxy, heightDeg float64, tail ...Tail) (*sqldb.Table, error) {
	if heightDeg <= 0 {
		return nil, fmt.Errorf("zone: non-positive zone height %g", heightDeg)
	}
	_ = db.DropTable(tableName, true)
	t, err := db.CreateTableClustered(tableName, ZoneTableColumns(tail...), []string{"zoneid", "ra"})
	if err != nil {
		return nil, err
	}
	sch := ColumnarZoneSchema(tail...)
	cb, err := colstore.NewBuilder(db.Pool(), sch, colZoneID, colRa)
	if err != nil {
		return nil, err
	}
	var (
		ints   [2]int64
		floats [10]float64
	)
	nf := len(sch) - len(ints)
	for _, k := range zoneOrder(gals, heightDeg) {
		zoneRow(gals, k, &ints, &floats)
		if err := cb.Add(ints[:], floats[:nf]); err != nil {
			return nil, err
		}
	}
	ct, err := cb.Finish()
	if err != nil {
		return nil, err
	}
	if err := t.LoadColumnar(ct); err != nil {
		return nil, err
	}
	return t, nil
}

// zoneRow derives one Zone row — zone id and unit vector computed once —
// in colstore's per-kind layout: ints holds (zoneid, objid), floats the
// eight float columns in schema order and then ErrorTail's two (a table
// without the tail stores the first eight).
func zoneRow(gals []sky.Galaxy, k zoneKey, ints *[2]int64, floats *[10]float64) {
	g := &gals[k.idx]
	vec := astro.UnitVector(g.Ra, g.Dec)
	ints[0], ints[1] = int64(k.zone), g.ObjID
	floats[0], floats[1] = g.Ra, g.Dec
	floats[2], floats[3], floats[4] = vec.X, vec.Y, vec.Z
	floats[5], floats[6], floats[7] = g.I, g.Gr, g.Ri
	floats[8], floats[9] = g.SigmaGr, g.SigmaRi
}

// zoneKey is one galaxy's place in the (zoneid, ra) order: spZone sorts
// these 16-byte keys, not the galaxies, and reads each galaxy once through
// idx when its row is built. raKey is storage.Float64Key(ra): the
// clustered key's float order, in which -0 precedes +0 and NaN has a
// place, as colstore.Builder requires.
type zoneKey struct {
	zone  int32
	idx   int32
	raKey uint64
}

// zoneOrder returns the permutation of gals in clustered-index order:
// (zoneid, ra) with ra in the key encoding's order, ties by ObjID and then
// input position, so the order is total and every implementation sees the
// same one. gals is only read.
//
// The zone id is the bucket (Joshi et al.'s grid files): one counting
// pass sizes each zone's run, the keys cycle into their runs in place,
// and only each run is sorted, by (ra, ObjID, input position). The
// in-place cycling is not stable, but the runs' order is total, so it
// need not be. A zone span far wider than the catalog (a degenerate
// height or declination) falls back to one comparator sort over all
// keys, which gives the same order.
func zoneOrder(gals []sky.Galaxy, heightDeg float64) []zoneKey {
	keys := make([]zoneKey, len(gals))
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for i := range gals {
		z := int32(astro.ZoneID(gals[i].Dec, heightDeg))
		keys[i] = zoneKey{zone: z, idx: int32(i), raKey: storage.Float64Key(gals[i].Ra)}
		lo, hi = min(lo, z), max(hi, z)
	}
	if len(keys) < 2 {
		return keys
	}
	inZone := func(a, b zoneKey) int {
		if c := cmp.Compare(a.raKey, b.raKey); c != 0 {
			return c
		}
		if c := cmp.Compare(gals[a.idx].ObjID, gals[b.idx].ObjID); c != 0 {
			return c
		}
		return int(a.idx - b.idx)
	}
	span := int(int64(hi) - int64(lo) + 1)
	if int64(span) > int64(len(keys))+1<<16 {
		slices.SortFunc(keys, func(a, b zoneKey) int {
			if c := cmp.Compare(a.zone, b.zone); c != 0 {
				return c
			}
			return inZone(a, b)
		})
		return keys
	}
	// Zone lo+b's run is keys[bounds[b]:bounds[b+1]]; next[b] is its first
	// slot not yet holding one of its keys.
	buf := make([]int, 2*span+1)
	bounds, next := buf[:span+1], buf[span+1:]
	for _, k := range keys {
		bounds[k.zone-lo+1]++
	}
	for b := 1; b <= span; b++ {
		bounds[b] += bounds[b-1]
	}
	copy(next, bounds)
	for b := range next {
		for next[b] < bounds[b+1] {
			k := keys[next[b]]
			for zb := int(k.zone - lo); zb != b; zb = int(k.zone - lo) {
				keys[next[zb]], k = k, keys[next[zb]]
				next[zb]++
			}
			keys[next[b]] = k
			next[b]++
		}
	}
	for b := 0; b < span; b++ {
		if run := keys[bounds[b]:bounds[b+1]]; len(run) > 1 {
			slices.SortFunc(run, inZone)
		}
	}
	return keys
}

// ZoneRow is one neighbour returned by SearchTable or Sweep: identity,
// position, chord-approximated distance in degrees, and the denormalised
// photometry (zero from a swept table without Zone's i, gr, ri columns).
type ZoneRow struct {
	ObjID     int64
	Ra, Dec   float64
	Distance  float64
	I, Gr, Ri float64
}

// SearchTable runs the neighbour search against a DB zone table via
// clustered-index range scans: for each overlapping zone, scan
// (zoneid = z, ra in [ra-x, ra+x]) and test the squared chord length. fn
// receives each neighbour; the scan itself is the I/O-accounted hot loop of
// fBCGCandidate.
func SearchTable(t *sqldb.Table, heightDeg, raDeg, decDeg, rDeg float64, fn func(ZoneRow)) error {
	if rDeg < 0 {
		return nil
	}
	center := astro.UnitVector(raDeg, decDeg)
	r2 := astro.Chord2FromAngle(rDeg)
	minZ, maxZ := astro.ZoneRange(decDeg, rDeg, heightDeg)
	cov := astro.NewRaCover(decDeg, rDeg)
	for z := minZ; z <= maxZ; z++ {
		x := cov.HalfWidth(z, heightDeg)
		segs, ns := astro.RaWindows(raDeg, x)
		for s := 0; s < ns; s++ {
			cur, err := t.RangeScanPrefix(
				[]sqldb.Value{sqldb.Int(int64(z)), sqldb.Float(segs[s][0])},
				[]sqldb.Value{sqldb.Int(int64(z)), sqldb.Float(segs[s][1])},
			)
			if err != nil {
				return err
			}
			for cur.Next() {
				row := cur.Row()
				cx, _ := row[4].AsFloat()
				cy, _ := row[5].AsFloat()
				cz, _ := row[6].AsFloat()
				dx := cx - center.X
				dy := cy - center.Y
				dz := cz - center.Z
				c2 := dx*dx + dy*dy + dz*dz
				if c2 < r2 {
					var out ZoneRow
					out.ObjID, _ = row[1].AsInt()
					out.Ra, _ = row[2].AsFloat()
					out.Dec, _ = row[3].AsFloat()
					out.Distance = chordDeg(c2)
					out.I, _ = row[7].AsFloat()
					out.Gr, _ = row[8].AsFloat()
					out.Ri, _ = row[9].AsFloat()
					fn(out)
				}
			}
			err = cur.Err()
			cur.Close()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// RegisterNearbyTVF installs fGetNearbyObjEqZd(ra, dec, r) over the given
// zone table, so the paper's SQL (SELECT * FROM fGetNearbyObjEqZd(2.5, 3.0,
// 0.5)) runs verbatim on the engine. The returned schema is the paper's
// (objID bigint, distance float).
//
// The registration also wires the TVF's batch path: a SQL join of a probe
// table against the function — the paper's spGetNearbyObjEqZd cursor shape
// — lowers in the sqldb planner to a ZoneSweepJoin that answers every
// probe with one Sweep over the zone table's column segments
// (TableSource) instead of one SearchTable range scan per row. While the
// table carries no segments (a row table, or a column-primary one after a
// SQL write) the planner keeps the per-row plan, which still answers.
func RegisterNearbyTVF(db *sqldb.DB, zoneTable *sqldb.Table, heightDeg float64) {
	parseArgs := func(args []sqldb.Value) (ra, dec, r float64, err error) {
		if len(args) != 3 {
			return 0, 0, 0, fmt.Errorf("zone: fGetNearbyObjEqZd expects (ra, dec, r)")
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
			err = SearchTable(zoneTable, heightDeg, ra, dec, r, func(zr ZoneRow) {
				rows = append(rows, []sqldb.Value{sqldb.Int(zr.ObjID), sqldb.Float(zr.Distance)})
			})
			return rows, err
		},
		Batch: func(ctx context.Context, probes [][]sqldb.Value, emit func(int, []sqldb.Value)) error {
			ps := make([]Probe, len(probes))
			for i, args := range probes {
				ra, dec, r, err := parseArgs(args)
				if err != nil {
					return err
				}
				ps[i] = Probe{Ra: ra, Dec: dec, R: r}
			}
			// One scratch row per emission; the sqldb contract says the
			// consumer copies before the call returns. Per probe, the sweep
			// emits in SearchTable's (zone asc, ra asc) order, so the
			// batched plan is bit-identical to the per-row plan.
			scratch := make([]sqldb.Value, 2)
			fn := func(pi int, zr ZoneRow) {
				scratch[0] = sqldb.Int(zr.ObjID)
				scratch[1] = sqldb.Float(zr.Distance)
				emit(pi, scratch)
			}
			return Sweep(ctx, TableSource(zoneTable, heightDeg), ps, SweepOptions{}, fn)
		},
		Source: zoneTable,
	})
}
