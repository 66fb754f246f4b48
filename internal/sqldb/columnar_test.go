package sqldb

import (
	"strings"
	"testing"

	"repro/internal/colstore"
)

// buildProjection attaches a minimal columnar projection to t's table so
// the detach-on-write contract can be observed.
func buildProjection(t *testing.T, tbl *Table) *colstore.Table {
	t.Helper()
	b, err := colstore.NewBuilder(tbl.pool, colstore.Schema{
		{Name: "k", Kind: colstore.Int64},
		{Name: "v", Kind: colstore.Float64},
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetColumnar(ct); err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestColumnarProjectionDetachesOnWrite pins the table-option contract: a
// non-nil Columnar() is always a snapshot of the current rows, so every
// write path must detach it.
func TestColumnarProjectionDetachesOnWrite(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE t (k bigint PRIMARY KEY, v float)")
	tbl, _ := db.Table("t")

	row := func(k int64) []Value { return []Value{Int(k), Float(float64(k))} }

	if ct := buildProjection(t, tbl); tbl.Columnar() != ct {
		t.Fatal("projection not attached")
	}
	if err := tbl.Insert(row(1)); err != nil {
		t.Fatal(err)
	}
	if tbl.Columnar() != nil {
		t.Error("Insert left a stale projection attached")
	}

	buildProjection(t, tbl)
	if err := tbl.BulkInsert([][]Value{row(2), row(3)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Columnar() != nil {
		t.Error("BulkInsert left a stale projection attached")
	}

	buildProjection(t, tbl)
	if err := tbl.ReplaceAll([][]Value{row(4)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Columnar() != nil {
		t.Error("ReplaceAll left a stale projection attached")
	}

	buildProjection(t, tbl)
	if err := tbl.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tbl.Columnar() != nil {
		t.Error("Truncate left a stale projection attached")
	}
}

// TestInsertSelectBulkLoads pins the bulk routing of multi-row INSERT:
// contents and scan order must match the historical row-at-a-time path,
// identity columns keep numbering, and a mid-batch duplicate key aborts
// the whole statement leaving the target untouched.
func TestInsertSelectBulkLoads(t *testing.T) {
	db := Open(256)
	mustExec(t, db, "CREATE TABLE src (k bigint PRIMARY KEY, v float)")
	for i := 0; i < 300; i++ {
		mustExec(t, db, "INSERT INTO src VALUES (?, ?)", Int(int64(299-i)), Float(float64(i)))
	}
	mustExec(t, db, "CREATE TABLE dst (k bigint PRIMARY KEY, v float)")
	if n := mustExec(t, db, "INSERT INTO dst SELECT k, v FROM src"); n != 300 {
		t.Fatalf("INSERT SELECT moved %d rows, want 300", n)
	}
	// The target must scan exactly like src (same PK order, same values).
	want := mustQuery(t, db, "SELECT k, v FROM src")
	got := mustQuery(t, db, "SELECT k, v FROM dst")
	if want.Len() != got.Len() {
		t.Fatalf("dst has %d rows, src %d", got.Len(), want.Len())
	}
	for want.Next() && got.Next() {
		w, g := want.Row(), got.Row()
		if w[0].I != g[0].I || w[1].F != g[1].F {
			t.Fatalf("row mismatch: src %v, dst %v", w, g)
		}
	}

	// A duplicate key anywhere in the batch aborts the whole statement.
	if _, err := db.Exec("INSERT INTO dst SELECT k, v FROM src"); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate batch not rejected (err = %v)", err)
	}
	cnt := mustQuery(t, db, "SELECT COUNT(*) FROM dst")
	cnt.Next()
	if cnt.Row()[0].I != 300 {
		t.Fatalf("failed INSERT SELECT left dst with %d rows", cnt.Row()[0].I)
	}

	// Identity numbering continues across the bulk path, like Insert.
	mustExec(t, db, "CREATE TABLE idt (id bigint IDENTITY, v float)")
	mustExec(t, db, "INSERT INTO idt (v) VALUES (0.5)")
	mustExec(t, db, "INSERT INTO idt (v) SELECT v FROM src WHERE k < 3")
	ids := mustQuery(t, db, "SELECT id FROM idt")
	next := int64(1)
	for ids.Next() {
		if ids.Row()[0].I != next {
			t.Fatalf("identity sequence broke: got %d, want %d", ids.Row()[0].I, next)
		}
		next++
	}
	if next != 5 {
		t.Fatalf("idt holds %d rows, want 4", next-1)
	}
}
