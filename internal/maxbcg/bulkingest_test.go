package maxbcg

import (
	"reflect"
	"testing"

	"repro/internal/astro"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// TestZoneTableBulkMatchesTrickle compares spZone's bulk-loaded zone table
// with the same rows inserted one at a time, in catalog order, into a table
// clustered on the same key: same keys, same rows, same cursor order, row
// by row.
func TestZoneTableBulkMatchesTrickle(t *testing.T) {
	cat := batchEquivCatalog(t)
	db := sqldb.Open(0)
	bulkT, err := zone.InstallZoneTable(db, "ZoneBulk", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	trickleT, err := db.CreateTableClustered("ZoneTrickle", zone.ZoneTableColumns(), []string{"zoneid", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range cat.Galaxies {
		v := astro.UnitVector(g.Ra, g.Dec)
		if err := trickleT.Insert([]sqldb.Value{
			sqldb.Int(int64(astro.ZoneID(g.Dec, astro.ZoneHeightDeg))), sqldb.Int(g.ObjID),
			sqldb.Float(g.Ra), sqldb.Float(g.Dec), sqldb.Float(v.X), sqldb.Float(v.Y), sqldb.Float(v.Z),
			sqldb.Float(g.I), sqldb.Float(g.Gr), sqldb.Float(g.Ri),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if bulkT.NumRows() != trickleT.NumRows() {
		t.Fatalf("row counts differ: bulk %d, trickle %d", bulkT.NumRows(), trickleT.NumRows())
	}
	bc, err := bulkT.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	tc, err := trickleT.Scan()
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
			t.Fatalf("row %d differs between bulk and trickle zone tables", n)
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
