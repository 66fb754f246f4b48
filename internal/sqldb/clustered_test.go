package sqldb

import (
	"math/rand"
	"testing"
)

func TestCreateTableClustered(t *testing.T) {
	db := Open(256)
	cols := []Column{
		{Name: "zoneid", Type: TInt},
		{Name: "ra", Type: TFloat},
		{Name: "objid", Type: TInt},
	}
	tbl, err := db.CreateTableClustered("z", cols, []string{"zoneid", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	// Rows load in random order; scans come back in clustered order.
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{
			Int(int64(rng.Intn(40))),
			Float(float64(rng.Intn(100000)) / 100),
			Int(int64(i)),
		}
	}
	if err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	cur, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var prevZ int64 = -1 << 62
	prevRa := -1.0
	count := 0
	for cur.Next() {
		z, _ := cur.Row()[0].AsInt()
		ra, _ := cur.Row()[1].AsFloat()
		if z < prevZ || (z == prevZ && ra < prevRa) {
			t.Fatalf("clustered order violated at row %d: (%d, %g) after (%d, %g)", count, z, ra, prevZ, prevRa)
		}
		prevZ, prevRa = z, ra
		count++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan returned %d rows, want %d", count, n)
	}

	// Composite-prefix range scans work as on a reclustered table.
	rcur, err := tbl.RangeScanPrefix(
		[]Value{Int(7), Float(100)},
		[]Value{Int(7), Float(500)},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rcur.Close()
	got := 0
	for rcur.Next() {
		z, _ := rcur.Row()[0].AsInt()
		ra, _ := rcur.Row()[1].AsFloat()
		if z != 7 || ra < 100 || ra > 500 {
			t.Fatalf("range scan leaked row (%d, %g)", z, ra)
		}
		got++
	}
	if got == 0 {
		t.Fatal("range scan found nothing in a populated band")
	}

	// Validation: unknown key column, duplicate table name.
	if _, err := db.CreateTableClustered("bad", cols, []string{"nope"}); err == nil {
		t.Error("unknown clustered key column accepted")
	}
	if _, err := db.CreateTableClustered("z", cols, []string{"zoneid"}); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestClusteredEqualsReclustered(t *testing.T) {
	// Loading into a natively clustered table must give the same scan
	// order as loading a heap and running CREATE CLUSTERED INDEX.
	db := Open(512)
	cols := []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TFloat}}
	direct, err := db.CreateTableClustered("direct", cols, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := db.CreateTable("heap", cols, "")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rows := make([][]Value, 2000)
	for i := range rows {
		rows[i] = []Value{Int(int64(rng.Intn(500))), Float(float64(i))}
	}
	if err := direct.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if err := heap.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if err := heap.Recluster([]string{"k"}); err != nil {
		t.Fatal(err)
	}
	a, err := db.Query("SELECT k FROM direct")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Query("SELECT k FROM heap")
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for a.Next() && b.Next() {
		if a.Row()[0].I != b.Row()[0].I {
			t.Fatal("clustered orders differ between direct load and recluster")
		}
	}
}
