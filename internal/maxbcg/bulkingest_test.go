package maxbcg

import (
	"reflect"
	"testing"

	"repro/internal/astro"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// TestZoneTableBulkMatchesTrickle compares spZone's column-primary zone
// table with the same rows loaded in catalog order — unsorted, so the load
// sorts them itself — into a row table clustered on the same key: same
// rows, same cursor order, row by row.
func TestZoneTableBulkMatchesTrickle(t *testing.T) {
	cat := batchEquivCatalog(t)
	db := sqldb.Open(0)
	bulkT, err := zone.InstallZoneTableColumnar(db, "ZoneBulk", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	rowT, err := db.CreateTableClustered("ZoneRows", zone.ZoneTableColumns(), []string{"zoneid", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rowT.BulkInsertFunc(len(cat.Galaxies), func(i int) []sqldb.Value {
		g := cat.Galaxies[i]
		v := astro.UnitVector(g.Ra, g.Dec)
		return []sqldb.Value{
			sqldb.Int(int64(astro.ZoneID(g.Dec, astro.ZoneHeightDeg))), sqldb.Int(g.ObjID),
			sqldb.Float(g.Ra), sqldb.Float(g.Dec), sqldb.Float(v.X), sqldb.Float(v.Y), sqldb.Float(v.Z),
			sqldb.Float(g.I), sqldb.Float(g.Gr), sqldb.Float(g.Ri),
		}
	}); err != nil {
		t.Fatal(err)
	}
	if bulkT.Columnar() == nil {
		t.Fatal("spZone's table carries no column segments")
	}
	if bulkT.NumRows() != rowT.NumRows() {
		t.Fatalf("row counts differ: bulk %d, row table %d", bulkT.NumRows(), rowT.NumRows())
	}
	bc, err := bulkT.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	tc, err := rowT.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	n := 0
	for {
		bOK, tOK := bc.Next(), tc.Next()
		if bOK != tOK {
			t.Fatalf("scan lengths diverge at row %d", n)
		}
		if !bOK {
			break
		}
		if !reflect.DeepEqual(bc.Row(), tc.Row()) {
			t.Fatalf("row %d differs between the column-primary and row zone tables", n)
		}
		n++
	}
	if err := bc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := tc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("zone tables are empty")
	}
}
