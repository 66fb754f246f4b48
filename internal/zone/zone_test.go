package zone

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

func testGalaxies(t testing.TB, seed int64, n int) []sky.Galaxy {
	t.Helper()
	cat, err := sky.Generate(sky.GenConfig{
		Region:        astro.MustBox(180, 181, -0.5, 0.5),
		Seed:          seed,
		GalaxyDensity: float64(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat.Galaxies
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Error("zero height accepted")
	}
	idx, err := Build(nil, astro.ZoneHeightDeg)
	if err != nil || idx.Len() != 0 {
		t.Errorf("empty build: %v, len %d", err, idx.Len())
	}
	idx.Visit(180, 0, 0.5, func(Neighbor) { t.Error("visit on empty index yielded a result") })
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	gals := testGalaxies(t, 1, 4000)
	idx, err := Build(gals, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != len(gals) {
		t.Fatalf("index holds %d of %d", idx.Len(), len(gals))
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		ra := 180 + rng.Float64()
		dec := rng.Float64() - 0.5
		r := rng.Float64() * 0.4
		got := idx.Neighbors(ra, dec, r)
		want := BruteForce(gals, ra, dec, r)
		if len(got) != len(want) {
			t.Fatalf("trial %d (r=%g): zone found %d, brute force %d", trial, r, len(got), len(want))
		}
		for i := range got {
			if got[i].Entry.ObjID != want[i].Entry.ObjID {
				t.Fatalf("trial %d: result %d differs: %d vs %d", trial, i, got[i].Entry.ObjID, want[i].Entry.ObjID)
			}
			if math.Abs(got[i].Distance-want[i].Distance) > 1e-12 {
				t.Fatalf("trial %d: distance differs", trial)
			}
		}
	}
}

func TestNeighborsAtHighDeclination(t *testing.T) {
	// The 1/cos(dec) ra stretching matters near the poles; verify against
	// brute force on a synthetic high-dec field.
	var gals []sky.Galaxy
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		gals = append(gals, sky.Galaxy{
			ObjID: int64(i + 1),
			Ra:    100 + rng.Float64()*20,
			Dec:   84 + rng.Float64()*2,
		})
	}
	idx, err := Build(gals, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		ra := 105 + rng.Float64()*10
		dec := 84.3 + rng.Float64()*1.4
		r := rng.Float64() * 0.5
		got := idx.Neighbors(ra, dec, r)
		want := BruteForce(gals, ra, dec, r)
		if len(got) != len(want) {
			t.Fatalf("high-dec trial %d (dec=%g r=%g): %d vs %d", trial, dec, r, len(got), len(want))
		}
	}
}

func TestNeighborsEmptyRadius(t *testing.T) {
	gals := testGalaxies(t, 5, 1000)
	idx, _ := Build(gals, astro.ZoneHeightDeg)
	if n := idx.Neighbors(180.5, 0, 0); len(n) != 0 {
		t.Errorf("r=0 returned %d neighbours", len(n))
	}
	if n := idx.Neighbors(180.5, 0, -1); len(n) != 0 {
		t.Errorf("negative radius returned %d neighbours", len(n))
	}
}

func TestSelfIsFound(t *testing.T) {
	gals := testGalaxies(t, 7, 500)
	idx, _ := Build(gals, astro.ZoneHeightDeg)
	// Searching exactly at an object's position finds it at distance 0.
	g := gals[42]
	found := false
	idx.Visit(g.Ra, g.Dec, 0.01, func(n Neighbor) {
		if n.Entry.ObjID == g.ObjID && n.Distance < 1e-12 {
			found = true
		}
	})
	if !found {
		t.Error("object not found at its own position")
	}
}

func TestZoneHeightInvariance(t *testing.T) {
	// The result set must not depend on the zone height (it only affects
	// cost). This is the core correctness property of zone indexing.
	gals := testGalaxies(t, 11, 3000)
	heights := []float64{astro.ZoneHeightDeg, 4 * astro.ZoneHeightDeg, 0.5, 1.0}
	var indexes []*Index
	for _, h := range heights {
		idx, err := Build(gals, h)
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, idx)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		ra := 180 + rng.Float64()
		dec := rng.Float64() - 0.5
		r := rng.Float64() * 0.5
		base := indexes[0].Neighbors(ra, dec, r)
		for hi := 1; hi < len(indexes); hi++ {
			got := indexes[hi].Neighbors(ra, dec, r)
			if len(got) != len(base) {
				t.Fatalf("height %g vs %g: %d vs %d results", heights[hi], heights[0], len(got), len(base))
			}
			for i := range got {
				if got[i].Entry.ObjID != base[i].Entry.ObjID {
					t.Fatalf("height %g: result %d differs", heights[hi], i)
				}
			}
		}
	}
}

func TestInstallZoneTableAndSearch(t *testing.T) {
	gals := testGalaxies(t, 17, 12000)
	db := sqldb.Open(512)
	tbl, err := InstallZoneTableColumnar(db, "zone", gals, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != int64(len(gals)) {
		t.Fatalf("zone table has %d rows, want %d", tbl.NumRows(), len(gals))
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		ra := 180 + rng.Float64()
		dec := rng.Float64() - 0.5
		r := rng.Float64() * 0.3
		want := BruteForce(gals, ra, dec, r)
		var got []int64
		err := SearchTable(tbl, astro.ZoneHeightDeg, ra, dec, r, func(zr ZoneRow) {
			got = append(got, zr.ObjID)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: table search found %d, brute force %d", trial, len(got), len(want))
		}
	}
	// The search must be cheaper than a full scan: stats-visible.
	db.Pool().ResetStats()
	if err := SearchTable(tbl, astro.ZoneHeightDeg, 180.5, 0, 0.04, func(ZoneRow) {}); err != nil {
		t.Fatal(err)
	}
	partial := db.Stats().LogicalReads
	db.Pool().ResetStats()
	cur, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	cur.Close()
	full := db.Stats().LogicalReads
	if partial*2 >= full {
		t.Errorf("zone search read %d pages, full scan %d: index not pruning", partial, full)
	}
}

func TestNearbyTVFThroughSQL(t *testing.T) {
	gals := testGalaxies(t, 23, 1500)
	db := sqldb.Open(512)
	tbl, err := InstallZoneTableColumnar(db, "zone", gals, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterNearbyTVF(db, tbl, astro.ZoneHeightDeg)

	// The paper's sample invocation shape.
	rows, err := db.Query("SELECT objID, distance FROM fGetNearbyObjEqZd(180.5, 0.0, 0.25) n ORDER BY distance")
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForce(gals, 180.5, 0.0, 0.25)
	if rows.Len() != len(want) {
		t.Fatalf("TVF returned %d rows, brute force %d", rows.Len(), len(want))
	}
	prev := -1.0
	for rows.Next() {
		d, _ := rows.Row()[1].AsFloat()
		if d < prev {
			t.Fatal("TVF results not ordered by distance")
		}
		prev = d
	}

	// Join against a galaxy table, as fBCGCandidate does.
	if _, err := db.Exec("CREATE TABLE g (objid bigint PRIMARY KEY, i real)"); err != nil {
		t.Fatal(err)
	}
	gt, _ := db.Table("g")
	for _, g := range gals {
		if err := gt.Insert([]sqldb.Value{sqldb.Int(g.ObjID), sqldb.Float(g.I)}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err = db.Query(`SELECT COUNT(*) FROM fGetNearbyObjEqZd(180.5, 0.0, 0.25) n
		JOIN g ON g.objid = n.objID WHERE g.i < 25`)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if rows.Row()[0].I != int64(len(want)) {
		t.Errorf("TVF join count = %v, want %d", rows.Row()[0], len(want))
	}
}

func BenchmarkZoneVisit(b *testing.B) {
	gals := testGalaxies(b, 29, 14000)
	idx, err := Build(gals, astro.ZoneHeightDeg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		ra := 180 + float64(i%100)/100
		idx.Visit(ra, 0, 0.25, func(Neighbor) { n++ })
	}
	_ = n
}

func BenchmarkBruteForce(b *testing.B) {
	gals := testGalaxies(b, 29, 14000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ra := 180 + float64(i%100)/100
		BruteForce(gals, ra, 0, 0.25)
	}
}
