package sqldb

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// Row scans decode only the column prefix their statement reads
// (logScan.prefix). Every shape must return what the full-decode plan
// returns, from the same page reads, and the undecoded tail must be NULL
// at the scan — never a value some row left behind.

// pruneDB holds a six-column table whose tail columns (s, tail) the
// narrow statements never mention.
func pruneDB(t *testing.T) *DB {
	t.Helper()
	db := Open(256)
	mustExec(t, db, "CREATE TABLE wide (id bigint PRIMARY KEY, a float, b float, c bigint, s text, tail float)")
	tb, _ := db.Table("wide")
	rows := make([][]Value, 600)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Float(float64(i%97) / 97), Float(float64(i%13) - 6),
			Int(int64(i % 7)), String(fmt.Sprintf("row-%d", i)), Float(float64(i) * 1.5)}
	}
	if err := tb.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// scanLeaves returns the plan's row scans.
func scanLeaves(op physOp) []physOp {
	switch op.(type) {
	case *seqScanOp, *rangeScanOp:
		return []physOp{op}
	}
	var out []physOp
	for _, k := range op.children() {
		out = append(out, scanLeaves(k)...)
	}
	return out
}

func scanCols(op physOp) *int {
	switch s := op.(type) {
	case *seqScanOp:
		return &s.cols
	case *rangeScanOp:
		return &s.cols
	}
	return nil
}

func TestScanDecodesOnlyTheReadPrefix(t *testing.T) {
	db := pruneDB(t)
	params := []Value{Float(0.2), Float(0.7), Float(3)}
	for _, c := range []struct {
		name, sql string
		cols      []int // per scan leaf; 0 = full decode
	}{
		{"filter+aggregate", "SELECT COUNT(*), AVG(b) FROM wide WHERE a BETWEEN ? AND ? AND b < ?", []int{3}},
		{"projection", "SELECT id, a FROM wide WHERE a > 0.5", []int{2}},
		{"no columns", "SELECT COUNT(*) FROM wide", []int{1}},
		{"group by/having", "SELECT c, COUNT(*), MAX(a) FROM wide GROUP BY c HAVING COUNT(*) > 85", []int{4}},
		{"order by unselected", "SELECT id FROM wide WHERE c = 2 ORDER BY b DESC, id", []int{4}},
		{"select star", "SELECT * FROM wide WHERE a < 0.2", []int{6}},
		{"join", "SELECT w.id, v.a FROM wide w JOIN wide v ON w.id = v.c", []int{0, 0}},
		{"range scan", "SELECT a, b FROM wide WHERE id BETWEEN 10 AND 90 AND b > 0", []int{3}},
		{"unresolved reference", "SELECT a AS x FROM wide ORDER BY x", []int{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			sel := stmt.(*SelectStmt)
			run := func(full bool) ([][]Value, storage.Stats) {
				snap := db.Snapshot()
				defer snap.Close()
				op, _, err := db.planSelect(context.Background(), sel, params, snap)
				if err != nil {
					t.Fatal(err)
				}
				defer op.close()
				leaves := scanLeaves(op)
				if len(leaves) != len(c.cols) {
					t.Fatalf("%d scan leaves, want %d", len(leaves), len(c.cols))
				}
				for i, l := range leaves {
					if got := *scanCols(l); got != c.cols[i] {
						t.Fatalf("scan %d decodes %d columns, want %d", i, got, c.cols[i])
					}
					if full {
						*scanCols(l) = 0
					}
				}
				before := db.Pool().Stats()
				rows, err := drainOp(op)
				if err != nil {
					t.Fatal(err)
				}
				return rows, db.Pool().Stats().Sub(before)
			}
			run(true) // warm the pool: both measured runs then hit it alike
			want, wantIO := run(true)
			got, gotIO := run(false)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("pruned rows differ from full decode:\n got %v\nwant %v", got, want)
			}
			if len(got) == 0 {
				t.Fatal("the statement returns no rows; the comparison is vacuous")
			}
			if gotIO != wantIO {
				t.Errorf("pool reads %+v, full decode %+v", gotIO, wantIO)
			}

			// At the scan itself, every slot past the prefix is NULL.
			snap := db.Snapshot()
			defer snap.Close()
			op, _, err := db.planSelect(context.Background(), sel, params, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer op.close()
			for _, l := range scanLeaves(op) {
				n := *scanCols(l)
				if n == 0 {
					continue
				}
				for {
					row, err := l.next()
					if err != nil {
						t.Fatal(err)
					}
					if row == nil {
						break
					}
					for i := n; i < len(row); i++ {
						if !row[i].IsNull() {
							t.Fatalf("slot %d past the %d-column prefix holds %v", i, n, row[i])
						}
					}
				}
			}
		})
	}
}

// The write paths read whole rows: a statement that names only leading
// columns must leave the tail of every row it rewrites or copies intact.
func TestWritesKeepUndecodedColumns(t *testing.T) {
	db := pruneDB(t)
	sum := func(sql string) string {
		t.Helper()
		rows := mustQuery(t, db, sql)
		rows.Next()
		return fmt.Sprint(rows.Row())
	}
	const tails = "SELECT COUNT(*), SUM(tail), MAX(s), SUM(c) FROM wide"
	before := sum(tails)
	mustExec(t, db, "UPDATE wide SET a = a + 1 WHERE a < 0.5")
	if got := sum(tails); got != before {
		t.Errorf("UPDATE on a: tail columns %s, were %s", got, before)
	}
	mustExec(t, db, "CREATE TABLE picked (id bigint PRIMARY KEY, b float, s text, tail float)")
	n := mustExec(t, db, "INSERT INTO picked SELECT id, b, s, tail FROM wide WHERE b > 2")
	if got, want := sum("SELECT COUNT(*), SUM(tail), MAX(s), SUM(b) FROM picked"),
		sum("SELECT COUNT(*), SUM(tail), MAX(s), SUM(b) FROM wide WHERE b > 2"); got != want || n == 0 {
		t.Errorf("INSERT ... SELECT copied %d rows: %s, source %s", n, got, want)
	}
	mustExec(t, db, "DELETE FROM wide WHERE id < 100")
	if got := sum("SELECT COUNT(*), MIN(tail), MIN(s) FROM wide"); got != "[500 150 row-100]" {
		t.Errorf("after DELETE id < 100: %s, want [500 150 row-100]", got)
	}
}

// A cursor that once decoded whole rows (Row) and then narrows to its
// eager prefix must not show the earlier row's tail through Decoded.
func TestDecodedNullsTailLeftByRow(t *testing.T) {
	db := pruneDB(t)
	tb, _ := db.Table("wide")
	cur, err := tb.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cur.SetEagerColumns(2)
	if !cur.Next() {
		t.Fatal("empty table")
	}
	if full := cur.Row(); full[5].IsNull() {
		t.Fatal("Row left the tail undecoded")
	}
	for cur.Next() {
		row := cur.Decoded()
		if row[0].IsNull() || row[1].IsNull() {
			t.Fatalf("prefix not decoded: %v", row)
		}
		for i := 2; i < len(row); i++ {
			if !row[i].IsNull() {
				t.Fatalf("slot %d holds %v past the 2-column prefix", i, row[i])
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}
