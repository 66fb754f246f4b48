package sqldb

import (
	"strings"
	"testing"
)

// TestColumnarProjectionDetachesOnWrite pins the contract of a
// column-primary table on the Go write paths: a non-nil Columnar() always
// holds the current rows, so a one-row INSERT, BulkInsert, ReplaceAll and
// Truncate each publish a row version with no segments, keeping every row.
func TestColumnarProjectionDetachesOnWrite(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE t (k bigint, v float)")
	mustExec(t, db, "INSERT INTO t VALUES (0, 0.0)")
	tbl, _ := db.Table("t")

	row := func(k int64) []Value { return []Value{Int(k), Float(float64(k))} }
	convert := func() {
		t.Helper()
		mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX tk ON t (k, v)")
		if tbl.Columnar() == nil {
			t.Fatal("the conversion published no segments")
		}
	}
	for _, w := range []struct {
		name  string
		write func() error
		rows  int64
	}{
		{"Insert", func() error { _, err := db.Exec("INSERT INTO t VALUES (1, 1.0)"); return err }, 2},
		{"BulkInsert", func() error { return tbl.BulkInsert([][]Value{row(2), row(3)}) }, 4},
		{"ReplaceAll", func() error { return tbl.ReplaceAll([][]Value{row(4)}) }, 1},
		{"Truncate", tbl.Truncate, 0},
	} {
		convert()
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if tbl.Columnar() != nil {
			t.Errorf("%s left segments on the table", w.name)
		}
		if n := tbl.NumRows(); n != w.rows {
			t.Errorf("%s: %d rows, want %d", w.name, n, w.rows)
		}
	}
}

// TestInsertSelectBulkLoads pins the bulk routing of INSERT ... SELECT:
// contents and scan order must match the source's, identity columns keep
// numbering, and a mid-batch duplicate key aborts the whole statement
// leaving the target untouched.
func TestInsertSelectBulkLoads(t *testing.T) {
	db := Open(256)
	mustExec(t, db, "CREATE TABLE src (k bigint PRIMARY KEY, v float)")
	src, _ := db.Table("src")
	if err := src.BulkInsertFunc(300, func(i int) []Value { return []Value{Int(int64(299 - i)), Float(float64(i))} }); err != nil {
		t.Fatal(err)
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

	// Identity numbering continues from a one-row INSERT into a batch.
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
