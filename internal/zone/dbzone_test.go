package zone

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// tieGalaxies is the seam fixture (RA hugging 0 and 360) plus the cases
// that make spZone's order observable: objects sharing one ra inside a
// zone, listed against their ObjID order, and objects exactly on the seam.
func tieGalaxies() []sky.Galaxy {
	gals := seamGalaxies()
	next := int64(len(gals))
	add := func(id int64, ra, dec float64) {
		gals = append(gals, sky.Galaxy{ObjID: id, Ra: ra, Dec: dec, I: 18.5, Gr: 1.05, Ri: 0.45,
			SigmaGr: float64(id), SigmaRi: -float64(id)})
	}
	for _, ra := range []float64{0, 359.99999999, 0.25, 12.5} {
		for k := int64(3); k >= 1; k-- { // descending ObjID: the tiebreak must reorder
			add(next+k, ra, 1.01)
		}
		next += 3
	}
	return gals
}

// galaxyBits is a bit-exact image of a galaxy slice, order included.
func galaxyBits(gals []sky.Galaxy) []uint64 {
	out := make([]uint64, 0, 8*len(gals))
	for i := range gals {
		g := &gals[i]
		out = append(out, uint64(g.ObjID))
		for _, f := range []float64{g.Ra, g.Dec, g.I, g.Gr, g.Ri, g.SigmaGr, g.SigmaRi} {
			out = append(out, math.Float64bits(f))
		}
	}
	return out
}

// wantZoneRows states the zone table's contract without the code under
// test: galaxies in (zoneid, ra, ObjID) order, each as its ten columns.
func wantZoneRows(gals []sky.Galaxy, height float64) [][]sqldb.Value {
	sorted := append([]sky.Galaxy(nil), gals...)
	sort.SliceStable(sorted, func(a, b int) bool {
		za, zb := astro.ZoneID(sorted[a].Dec, height), astro.ZoneID(sorted[b].Dec, height)
		if za != zb {
			return za < zb
		}
		if sorted[a].Ra != sorted[b].Ra {
			return sorted[a].Ra < sorted[b].Ra
		}
		return sorted[a].ObjID < sorted[b].ObjID
	})
	rows := make([][]sqldb.Value, len(sorted))
	for i, g := range sorted {
		v := astro.UnitVector(g.Ra, g.Dec)
		rows[i] = []sqldb.Value{
			sqldb.Int(int64(astro.ZoneID(g.Dec, height))), sqldb.Int(g.ObjID),
			sqldb.Float(g.Ra), sqldb.Float(g.Dec), sqldb.Float(v.X), sqldb.Float(v.Y), sqldb.Float(v.Z),
			sqldb.Float(g.I), sqldb.Float(g.Gr), sqldb.Float(g.Ri),
		}
	}
	return rows
}

// sameValues compares rows bit for bit (reflect.DeepEqual would equate ±0).
func sameValues(a, b []sqldb.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].I != b[i].I || math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

// rowZoneTable loads wantZoneRows(gals, height) into a new row table
// clustered on (zoneid, ra), with no column segments: the row-store
// reference a column-primary Zone must read like, and a table the sweep
// must refuse.
func rowZoneTable(t testing.TB, db *sqldb.DB, name string, gals []sky.Galaxy, height float64) *sqldb.Table {
	t.Helper()
	rt, err := db.CreateTableClustered(name, ZoneTableColumns(), []string{"zoneid", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	rows := wantZoneRows(gals, height)
	if err := rt.BulkInsertFunc(len(rows), func(i int) []sqldb.Value { return rows[i] }); err != nil {
		t.Fatal(err)
	}
	if rt.Columnar() != nil {
		t.Fatal("a row table carries column segments")
	}
	return rt
}

// TestInstallZoneTableOnePass: spZone leaves the caller's galaxies
// untouched (bench setups hand in the shared catalog), and its single
// ordered pass stores what the contract says — as the table's rows, in
// the columnar segments, and as BruteForce sees it through SearchTable,
// where it answers exactly as a row table of the contract's rows does.
func TestInstallZoneTableOnePass(t *testing.T) {
	const height = 0.25
	gals := tieGalaxies()
	image := galaxyBits(gals)
	want := wantZoneRows(gals, height)

	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(galaxyBits(gals), image) {
		t.Fatal("InstallZoneTableColumnar reordered or rewrote the caller's galaxies")
	}
	rowT := rowZoneTable(t, db, "ZoneRows", gals, height)
	for _, tb := range []*sqldb.Table{zt, rowT} {
		cur, err := tb.Scan()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next() {
			if n >= len(want) || !sameValues(cur.Row(), want[n]) {
				t.Fatalf("%s: row %d is %v, want %v", tb.Name, n, cur.Row(), want[min(n, len(want)-1)])
			}
			n++
		}
		cur.Close()
		if err := cur.Err(); err != nil || n != len(want) {
			t.Fatalf("%s: scanned %d rows (err %v), want %d", tb.Name, n, err, len(want))
		}
	}

	// The segments hold the same rows in the same order, one zone per page.
	ct := zt.Columnar()
	if ct == nil {
		t.Fatal("InstallZoneTableColumnar attached no segments")
	}
	sc := ct.NewScanner()
	n := 0
	for _, m := range ct.Segments() {
		if err := sc.Load(m); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < sc.NumRows(); r, n = r+1, n+1 {
			row := make([]sqldb.Value, len(want[0]))
			for ci := range row {
				if ci == colZoneID || ci == colObjID {
					row[ci] = sqldb.Int(sc.Ints(ci)[r])
				} else {
					row[ci] = sqldb.Float(sc.Floats(ci)[r])
				}
			}
			if n >= len(want) || !sameValues(row, want[n]) || row[colZoneID].I != m.Group {
				t.Fatalf("segment row %d (group %d) is %v, want %v", n, m.Group, row, want[min(n, len(want)-1)])
			}
		}
	}
	if n != len(want) {
		t.Fatalf("segments hold %d rows, want %d", n, len(want))
	}

	// SearchTable over the column-primary table returns brute force's
	// (objid, distance) hits bit for bit, across the seam and through the
	// ra ties, and the row table's rows in the row table's order.
	type hit struct {
		objID    int64
		distance float64
	}
	probes := append(seamProbes(), [3]float64{0, 1.01, 0.3}, [3]float64{12.5, 1.01, 0.05})
	for _, p := range probes {
		search := func(tb *sqldb.Table) []ZoneRow {
			var out []ZoneRow
			if err := SearchTable(tb, height, p[0], p[1], p[2], func(zr ZoneRow) { out = append(out, zr) }); err != nil {
				t.Fatal(err)
			}
			return out
		}
		rows, ref := search(zt), search(rowT)
		if len(rows) != len(ref) {
			t.Fatalf("probe %v: %d rows from the column-primary table, %d from the row table", p, len(rows), len(ref))
		}
		for i := range rows {
			if !sameZoneRow(rows[i], ref[i]) {
				t.Fatalf("probe %v row %d: column-primary %+v, row table %+v", p, i, rows[i], ref[i])
			}
		}
		var got, want []hit
		for _, zr := range rows {
			got = append(got, hit{zr.ObjID, zr.Distance})
		}
		// BruteForce orders by (distance, objid); put the search's hits in
		// that order too.
		sort.Slice(got, func(a, b int) bool {
			if got[a].distance != got[b].distance {
				return got[a].distance < got[b].distance
			}
			return got[a].objID < got[b].objID
		})
		for _, n := range BruteForce(gals, p[0], p[1], p[2]) {
			want = append(want, hit{n.Entry.ObjID, n.Distance})
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("probe %v: Zone returns %v, brute force %v", p, got, want)
		}
	}
}

// comparatorZoneOrder is zoneOrder's specification as one comparator sort:
// (zone, ra in key order, ObjID, input position). It is the oracle the
// bucketed production order must match key for key.
func comparatorZoneOrder(gals []sky.Galaxy, heightDeg float64) []zoneKey {
	keys := make([]zoneKey, len(gals))
	for i := range gals {
		keys[i] = zoneKey{zone: int32(astro.ZoneID(gals[i].Dec, heightDeg)), idx: int32(i), raKey: storage.Float64Key(gals[i].Ra)}
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.zone != y.zone {
			return x.zone < y.zone
		}
		if x.raKey != y.raKey {
			return x.raKey < y.raKey
		}
		if gx, gy := gals[x.idx].ObjID, gals[y.idx].ObjID; gx != gy {
			return gx < gy
		}
		return x.idx < y.idx
	})
	return keys
}

// TestZoneOrderMatchesComparator pins spZone's counting-sort order to the
// comparator it replaced, on inputs that reach every tie-break and on a
// catalog the size of the benchmark's.
func TestZoneOrderMatchesComparator(t *testing.T) {
	bench, err := sky.Generate(sky.GenConfig{Region: astro.MustBox(193.9, 196.4, 1.2, 3.8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		gals   []sky.Galaxy
		height float64
	}{
		{"empty", nil, 0.25},
		{"one zone", []sky.Galaxy{
			{ObjID: 9, Ra: 10.5, Dec: 2.01}, {ObjID: 3, Ra: 10.2, Dec: 2.02}, {ObjID: 5, Ra: 10.9, Dec: 2.03},
		}, 0.25},
		{"ra ties, distinct objids", []sky.Galaxy{
			{ObjID: 7, Ra: 10, Dec: 2.01}, {ObjID: 2, Ra: 10, Dec: 2.02}, {ObjID: 4, Ra: 10, Dec: 2.3},
			{ObjID: 1, Ra: 10, Dec: 2.03}, {ObjID: 8, Ra: 9, Dec: 2.3},
		}, 0.25},
		{"ra ties, equal objids", []sky.Galaxy{
			{ObjID: 5, Ra: 10, Dec: 2.01}, {ObjID: 5, Ra: 10, Dec: 2.02}, {ObjID: 5, Ra: 10, Dec: 2.3},
			{ObjID: 5, Ra: 10, Dec: 2.03}, {ObjID: 4, Ra: 10, Dec: 2.04},
		}, 0.25},
		{"seam and ties", tieGalaxies(), 0.25},
		{"signed zeros and NaN", signedZeroGalaxies(), 0.25},
		// A zone span far wider than the input takes the comparator fallback.
		{"sparse zones", []sky.Galaxy{
			{ObjID: 1, Ra: 3, Dec: 80}, {ObjID: 2, Ra: 1, Dec: -80}, {ObjID: 3, Ra: 2, Dec: 80},
		}, 1e-6},
		{"bench-size catalog", bench.Galaxies, astro.ZoneHeightDeg},
	}
	for _, c := range cases {
		got, want := zoneOrder(c.gals, c.height), comparatorZoneOrder(c.gals, c.height)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bucketed order differs from the comparator's", c.name)
		}
	}
	if len(bench.Galaxies) < 50000 {
		t.Errorf("bench-size case has only %d galaxies", len(bench.Galaxies))
	}
}

// signedZeroGalaxies puts ra +0 ahead of ra -0 (by ObjID and input order)
// and NaN ras among ordinary ones, all in one zone: < calls the zeros
// equal and leaves NaN unordered, while the clustered key orders -0 first
// and gives NaN a place.
func signedZeroGalaxies() []sky.Galaxy {
	var gals []sky.Galaxy
	for i, ra := range []float64{0, math.Copysign(0, -1), math.NaN(), 0.5, math.Copysign(0, -1), 0, math.NaN(), 0.25} {
		gals = append(gals, sky.Galaxy{ObjID: int64(i + 1), Ra: ra, Dec: 1.01 + float64(i)*1e-3, I: 18, Gr: 1, Ri: 0.4})
	}
	return gals
}

// TestInstallersAcceptSignedZeroAndNaNRa pins that spZone accepts the
// catalogs a row table does: ras of -0, +0 and NaN in one zone load into
// the column segments (whose builder insists on key order) as they bulk
// load into a row tree, and both tables scan the same rows, bit for bit,
// in the same order.
func TestInstallersAcceptSignedZeroAndNaNRa(t *testing.T) {
	db := sqldb.Open(0)
	gals := signedZeroGalaxies()
	rowT := rowZoneTable(t, db, "ZoneRows", gals, 0.25)
	colT, err := InstallZoneTableColumnar(db, "Zone", gals, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	scanBits := func(tb *sqldb.Table) []uint64 {
		cur, err := tb.Scan()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var out []uint64
		for cur.Next() {
			for _, v := range cur.Row() {
				if v.T == sqldb.TFloat {
					out = append(out, math.Float64bits(v.F))
				} else {
					out = append(out, uint64(v.I))
				}
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := scanBits(colT), scanBits(rowT)
	if len(want) != len(gals)*len(ZoneTableColumns()) {
		t.Fatalf("row table scans %d values, want %d", len(want), len(gals)*len(ZoneTableColumns()))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("column-primary table scans differently from the row table")
	}
	// The first two rows are the -0s, ObjIDs 2 and 5.
	negZero := math.Float64bits(math.Copysign(0, -1))
	if cols := len(ZoneTableColumns()); want[colRa] != negZero || want[cols+colRa] != negZero ||
		want[colObjID] != 2 || want[cols+colObjID] != 5 {
		t.Errorf("scan does not start with the -0 rows in ObjID order")
	}
}
