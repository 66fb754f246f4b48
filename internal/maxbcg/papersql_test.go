package maxbcg

import (
	"math"
	"testing"

	"repro/internal/sky"
	"repro/internal/sqldb"
)

// TestPaperAppendixSQL runs the shapes of the paper's appendix script
// (MaxBCG SQL code for MySkyServerDr1) against the engine: the schema DDL,
// the spImportGalaxy projection with its error-model expressions, the
// fBCGr200 scalar UDF, the fGetNearbyObjEqZd table-valued function joined
// with Galaxy, and the fIsCluster-style best-chi2 window query.
func TestPaperAppendixSQL(t *testing.T) {
	cat := testCatalog(t, 31)
	db := sqldb.Open(1024)

	// -- Schema (paper page 10), dialect-reduced: table variables and
	// procedures become engine tables and Go loops.
	ddl := `
	CREATE TABLE Kcorr (
		zid int IDENTITY(1,1) PRIMARY KEY NOT NULL,
		z real, i real, ilim real,
		ug real, gr real, ri real, iz real,
		radius float
	);
	CREATE TABLE PhotoObjAll (
		objid bigint PRIMARY KEY,
		ra float, dec float,
		dered_g float, dered_r float, dered_i float
	);
	CREATE TABLE Galaxy (
		objid bigint PRIMARY KEY,
		ra float, dec float,
		i real, gr real, ri real,
		sigmagr float, sigmari float
	);
	CREATE TABLE Candidates (
		objid bigint PRIMARY KEY,
		ra float, dec float, z float, i real, ngal int, chi2 float
	);
	`
	if err := db.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}

	// Import the k-correction table.
	kt, _ := db.Table("Kcorr")
	if err := kt.BulkInsertFunc(len(cat.Kcorr.Rows), func(i int) []sqldb.Value {
		r := cat.Kcorr.Rows[i]
		return []sqldb.Value{
			sqldb.Null(), // identity
			sqldb.Float(r.Z), sqldb.Float(r.I), sqldb.Float(r.Ilim),
			sqldb.Float(r.Ug), sqldb.Float(r.Gr), sqldb.Float(r.Ri), sqldb.Float(r.Iz),
			sqldb.Float(r.Radius),
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Populate PhotoObjAll so spImportGalaxy has a source. Reconstruct
	// dereddened magnitudes from the catalog's colours (g = i + gr + ri).
	pt, _ := db.Table("PhotoObjAll")
	const maxRows = 3000
	if err := pt.BulkInsertFunc(min(maxRows, len(cat.Galaxies)), func(i int) []sqldb.Value {
		g := &cat.Galaxies[i]
		return []sqldb.Value{
			sqldb.Int(g.ObjID), sqldb.Float(g.Ra), sqldb.Float(g.Dec),
			sqldb.Float(g.I + g.Gr + g.Ri), sqldb.Float(g.I + g.Ri), sqldb.Float(g.I),
		}
	}); err != nil {
		t.Fatal(err)
	}

	// -- spImportGalaxy (paper page 15): projection with the error model.
	n, err := db.Exec(`INSERT INTO Galaxy
		SELECT objid, ra, dec,
		       dered_i,
		       dered_g - dered_r,
		       dered_r - dered_i,
		       CAST(2.089 * POWER(10.000, 0.228 * dered_i - 6.0) AS FLOAT),
		       CAST(4.266 * POWER(10.0000, 0.206 * dered_i - 6.0) AS FLOAT)
		FROM PhotoObjAll
		WHERE ra BETWEEN 190 AND 200 AND dec BETWEEN 0 AND 5`)
	if err != nil {
		t.Fatal(err)
	}
	if n != maxRows {
		t.Fatalf("spImportGalaxy moved %d rows, want %d", n, maxRows)
	}
	// The imported colours must match the generator's originals.
	rows, err := db.Query("SELECT gr, ri, sigmagr FROM Galaxy WHERE objid = ?", sqldb.Int(cat.Galaxies[0].ObjID))
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	gr, _ := rows.Row()[0].AsFloat()
	sg, _ := rows.Row()[2].AsFloat()
	if math.Abs(gr-cat.Galaxies[0].Gr) > 1e-9 {
		t.Errorf("imported gr = %g, want %g", gr, cat.Galaxies[0].Gr)
	}
	if want := sky.SigmaGrFor(cat.Galaxies[0].I); math.Abs(sg-want) > 1e-9 {
		t.Errorf("imported sigmagr = %g, want %g", sg, want)
	}

	// -- fBCGr200 (paper page 14) as a scalar UDF.
	db.RegisterScalar("fBCGr200", func(args []sqldb.Value) (sqldb.Value, error) {
		ngal, err := args[0].AsFloat()
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Float(sky.R200Mpc(ngal)), nil
	})
	rows, err = db.Query("SELECT dbo.fBCGr200(100.0)")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if got, _ := rows.Row()[0].AsFloat(); math.Abs(got-1.78) > 0.02 {
		t.Errorf("fBCGr200(100) = %g, want ~1.78 (the paper's worked example)", got)
	}

	// -- Zone machinery + the paper's sample TVF invocation:
	//    "select * from fGetNearbyObjEqZd(2.5, 3.0, 0.5)" shape.
	finder, err := NewDBFinder(sqldb.Open(1024), DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := finder.ImportGalaxies(cat, cat.Region); err != nil {
		t.Fatal(err)
	}
	if err := finder.SpZone(); err != nil {
		t.Fatal(err)
	}
	rows, err = finder.DB.Query(`SELECT n.objID, n.distance FROM fGetNearbyObjEqZd(195.1, 2.5, 0.25) n
		JOIN Galaxy g ON g.objid = n.objID
		WHERE g.i BETWEEN 10 AND 25 ORDER BY n.distance`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("the paper's TVF join returned no neighbours in a dense field")
	}
	prev := -1.0
	for rows.Next() {
		d, _ := rows.Row()[1].AsFloat()
		if d < prev || d >= 0.25 {
			t.Fatalf("neighbour ordering/radius violated: %g after %g", d, prev)
		}
		prev = d
	}

	// -- fIsCluster's SELECT @chi = MAX(c.chi2) window shape over a
	//    candidate table.
	ct, _ := db.Table("Candidates")
	var cands [][]sqldb.Value
	for i, c := range []struct {
		z, chi2 float64
	}{{0.10, 1.5}, {0.12, 2.5}, {0.30, 9.0}} {
		cands = append(cands, []sqldb.Value{
			sqldb.Int(int64(i + 1)), sqldb.Float(195.0), sqldb.Float(2.5),
			sqldb.Float(c.z), sqldb.Float(17), sqldb.Int(5), sqldb.Float(c.chi2),
		})
	}
	if err := ct.BulkInsert(cands); err != nil {
		t.Fatal(err)
	}
	rows, err = db.Query(`SELECT MAX(chi2) FROM Candidates WHERE z BETWEEN ? AND ?`,
		sqldb.Float(0.10-0.05), sqldb.Float(0.10+0.05))
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if got, _ := rows.Row()[0].AsFloat(); got != 2.5 {
		t.Errorf("windowed MAX(chi2) = %g, want 2.5 (z=0.30 row excluded)", got)
	}
}
