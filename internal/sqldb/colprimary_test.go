package sqldb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// cpCols is the schema of the column-primary test tables: clustered on
// (g, s), with one int and one float payload column.
var cpCols = []Column{
	{Name: "g", Type: TInt}, {Name: "s", Type: TFloat},
	{Name: "a", Type: TInt}, {Name: "b", Type: TFloat},
}

func cpSchema() colstore.Schema {
	return colstore.Schema{
		{Name: "g", Kind: colstore.Int64}, {Name: "s", Kind: colstore.Float64},
		{Name: "a", Kind: colstore.Int64}, {Name: "b", Kind: colstore.Float64},
	}
}

// buildSegments builds rows, in the given order, into colstore segments
// grouped on g and sorted on s.
func buildSegments(db *DB, rows [][]Value) (*colstore.Table, error) {
	b, err := colstore.NewBuilder(db.Pool(), cpSchema(), 0, 1)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := b.Add([]int64{r[0].I, r[2].I}, []float64{r[1].F, r[3].F}); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// loadColumnPrimary creates name clustered on (g, s) and loads rows into
// it column-primary. The error is the builder's or LoadColumnar's refusal.
func loadColumnPrimary(db *DB, name string, rows [][]Value) (*Table, error) {
	tbl, err := db.CreateTableClustered(name, cpCols, []string{"g", "s"})
	if err != nil {
		return nil, err
	}
	ct, err := buildSegments(db, rows)
	if err != nil {
		return nil, err
	}
	return tbl, tbl.LoadColumnar(ct)
}

// loadRowTable creates name clustered on (g, s) and bulk-loads rows into
// its B+tree in the given order, so rowids follow that order.
func loadRowTable(t testing.TB, db *DB, name string, rows [][]Value) *Table {
	t.Helper()
	tbl, err := db.CreateTableClustered(name, cpCols, []string{"g", "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// keyOrder sorts rows stably into clustered-key order: g, then s in the key
// encoding's float order; ties keep their input order.
func keyOrder(rows [][]Value) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i][0].I != rows[j][0].I {
			return rows[i][0].I < rows[j][0].I
		}
		return storage.Float64Key(rows[i][1].F) < storage.Float64Key(rows[j][1].F)
	})
}

// cpRows generates n rows over a few groups (negative ones included) with
// many (g, s) ties, signed zeros and infinities, in key order.
func cpRows(rng *rand.Rand, n int) [][]Value {
	sorts := []float64{math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, math.Inf(1)}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{
			Int(int64(rng.Intn(5) - 2)), Float(sorts[rng.Intn(len(sorts))]),
			Int(int64(i)), Float(rng.Float64()),
		}
	}
	keyOrder(rows)
	return rows
}

// sameRows compares row sets value for value, bit for bit (sameValue).
func sameRows(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// drain copies every row a cursor yields (nil cursor: none) and closes it.
func drain(c *TableCursor, err error) ([][]Value, error) {
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var out [][]Value
	for c.Next() {
		out = append(out, append([]Value(nil), c.Row()...))
	}
	return out, c.Err()
}

// cpBounds are the prefix bounds the cursor checks walk: 1- and 2-column,
// open, inverted, and coerced (a Float on the group column, an Int on the
// float column).
func cpBounds() [][2][]Value {
	var out [][2][]Value
	for _, g := range []int64{-3, -2, 0, 1, 2, 3} {
		out = append(out,
			[2][]Value{{Int(g)}, {Int(g)}},
			[2][]Value{{Int(g)}, {Int(g + 1)}},
			[2][]Value{{Int(g), Float(-1)}, {Int(g), Float(1)}},
			[2][]Value{{Int(g), Float(math.Copysign(0, -1))}, {Int(g), Float(0)}},
			[2][]Value{{Int(g), Int(0)}, {Int(g), Int(3)}},
			[2][]Value{{Int(g), Float(1)}, {Int(g), Float(-1)}}, // lo > hi
			[2][]Value{{Int(g), Float(0.5)}, {Int(g + 1)}},
			[2][]Value{{Float(float64(g) + 0.5)}, {Int(g + 1), Float(math.Inf(-1))}},
			[2][]Value{nil, {Int(g), Float(0)}},
			[2][]Value{{Int(g), Float(math.Inf(1))}, nil},
		)
	}
	return append(out, [2][]Value{nil, nil}, [2][]Value{{Int(2)}, {Int(-2)}})
}

// cursorReads runs every read API of the contract over tv and returns the
// rows each produced, keyed by a description of the call.
func cursorReads(tv TableView) (map[string][][]Value, error) {
	out := make(map[string][][]Value)
	var err error
	if out["Scan"], err = drain(tv.Scan()); err != nil {
		return nil, err
	}
	out["NumRows"] = [][]Value{{Int(tv.NumRows())}}
	leading := []Value{Null(), Int(-2), Int(0), Int(1), Float(1.5), Int(9)}
	for _, lo := range leading {
		for _, hi := range leading {
			if out[fmt.Sprintf("RangeScan %v %v", lo, hi)], err = drain(tv.RangeScan(lo, hi)); err != nil {
				return nil, err
			}
		}
	}
	for i, b := range cpBounds() {
		name := fmt.Sprintf("bound %d %v..%v", i, b[0], b[1])
		if out["Prefix "+name], err = drain(tv.RangeScanPrefix(b[0], b[1])); err != nil {
			return nil, err
		}
		// A narrow eager set: Decoded (the tail must read NULL), then Row
		// completes it.
		c, err := tv.RangeScanPrefix(b[0], b[1])
		if err != nil {
			return nil, err
		}
		c.SetEagerColumns(1 + i%len(cpCols))
		var rows [][]Value
		for c.Next() {
			rows = append(rows,
				append([]Value(nil), c.Decoded()...),
				append([]Value(nil), c.Row()...))
		}
		c.Close()
		if c.Err() != nil {
			return nil, c.Err()
		}
		out["Eager "+name] = rows
	}
	return out, nil
}

// sqlReads runs a fixed query set over table name, with and without
// columnar scans, and returns each result.
func sqlReads(db *DB, name string) (map[string][][]Value, error) {
	queries := []string{
		"SELECT * FROM T",
		"SELECT g, s, a FROM T WHERE g BETWEEN -1 AND 1",
		"SELECT a, b FROM T WHERE g = 0 AND s BETWEEN -1 AND 1",
		"SELECT COUNT(*), SUM(a), MIN(s), MAX(b) FROM T WHERE s > 0",
		"SELECT g, COUNT(*) FROM T GROUP BY g ORDER BY g",
	}
	out := make(map[string][][]Value)
	for _, knobs := range []PlannerKnobs{{}, {NoColumnarScan: true}} {
		db.SetPlannerKnobs(knobs)
		for _, q := range queries {
			rows, err := db.Query(strings.ReplaceAll(q, " T", " "+name))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q, err)
			}
			var got [][]Value
			for rows.Next() {
				got = append(got, append([]Value(nil), rows.Row()...))
			}
			out[fmt.Sprintf("%+v %s", knobs, q)] = got
		}
	}
	db.SetPlannerKnobs(PlannerKnobs{})
	return out, nil
}

// compareReads fails t on the first read whose rows differ between the
// row table and the column-primary table.
func compareReads(t *testing.T, what string, db *DB, rowT, colT *Table) {
	t.Helper()
	want, err := cursorReads(rowT.View())
	if err != nil {
		t.Fatalf("%s: row table: %v", what, err)
	}
	got, err := cursorReads(colT.View())
	if err != nil {
		t.Fatalf("%s: column-primary table: %v", what, err)
	}
	wantSQL, err := sqlReads(db, rowT.Name)
	if err != nil {
		t.Fatalf("%s: row table: %v", what, err)
	}
	gotSQL, err := sqlReads(db, colT.Name)
	if err != nil {
		t.Fatalf("%s: column-primary table: %v", what, err)
	}
	for k, v := range wantSQL {
		want["SQL "+k] = v
	}
	for k, v := range gotSQL {
		got["SQL "+k] = v
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !sameRows(got[k], want[k]) {
			t.Fatalf("%s: %s: column-primary returned %d rows %v, row table %d rows %v",
				what, k, len(got[k]), got[k], len(want[k]), want[k])
		}
	}
}

// TestColumnPrimaryMatchesRowTable pins the column-primary contract: the
// same rows loaded as a clustered B+tree and as LoadColumnar segments read
// back identically through every cursor and through SQL, and every write
// leaves both tables identical.
func TestColumnPrimaryMatchesRowTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Enough rows for multi-segment groups (capacity is 255 rows at four
	// columns), with heavy (g, s) ties.
	rows := cpRows(rng, 1500)
	extra := cpRows(rng, 40)
	writes := []struct {
		name  string
		apply func(db *DB, tbl *Table) error
	}{
		{"none", func(*DB, *Table) error { return nil }},
		{"Insert", func(_ *DB, tbl *Table) error { return tbl.Insert(extra[0]) }},
		{"BulkInsert", func(_ *DB, tbl *Table) error { return tbl.BulkInsert(extra) }},
		{"UPDATE", func(db *DB, tbl *Table) error {
			_, err := db.Exec("UPDATE " + tbl.Name + " SET a = a + 1, s = s * 2 WHERE g = 1")
			return err
		}},
		{"DELETE", func(db *DB, tbl *Table) error {
			_, err := db.Exec("DELETE FROM " + tbl.Name + " WHERE s < 0")
			return err
		}},
		{"Recluster", func(_ *DB, tbl *Table) error { return tbl.Recluster([]string{"g", "b"}) }},
		{"ReplaceAll", func(_ *DB, tbl *Table) error { return tbl.ReplaceAll(extra) }},
		{"Truncate", func(_ *DB, tbl *Table) error { return tbl.Truncate() }},
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			db := Open(0)
			rowT := loadRowTable(t, db, "r", rows)
			colT, err := loadColumnPrimary(db, "c", rows)
			if err != nil {
				t.Fatal(err)
			}
			if colT.Columnar() == nil || !colT.View().v.colPrimary() {
				t.Fatal("LoadColumnar published no column-primary version")
			}
			if err := w.apply(db, rowT); err != nil {
				t.Fatal(err)
			}
			if err := w.apply(db, colT); err != nil {
				t.Fatal(err)
			}
			if w.name != "none" && colT.Columnar() != nil {
				t.Errorf("%s left the segments attached", w.name)
			}
			compareReads(t, w.name, db, rowT, colT)
			if rv, cv := rowT.View().v, colT.View().v; !cv.colPrimary() {
				// The write materialised the tree: it must hold exactly the
				// row table's bytes — keys with their rowids — and pages.
				if !bytes.Equal(treeBytes(t, cv.tree), treeBytes(t, rv.tree)) ||
					len(cv.treePages) != len(rv.treePages) || len(cv.delta) != len(rv.delta) ||
					cv.nextRowID != rv.nextRowID || cv.nextIdentity != rv.nextIdentity {
					t.Errorf("%s: stored rows differ from the row table's", w.name)
				}
				for i := range cv.delta {
					if !bytes.Equal(cv.delta[i].key, rv.delta[i].key) || !bytes.Equal(cv.delta[i].val, rv.delta[i].val) {
						t.Errorf("%s: overlay entry %d differs from the row table's", w.name, i)
					}
				}
			}
			// Rowids and identity continue identically: a tie inserted after
			// the write lands in the same place in both.
			tie := []Value{Int(0), Float(0), Int(-1), Float(-1)}
			if err := rowT.Insert(tie); err != nil {
				t.Fatal(err)
			}
			if err := colT.Insert(tie); err != nil {
				t.Fatal(err)
			}
			compareReads(t, w.name+" then Insert", db, rowT, colT)
			if n := db.Reclaimer().Pending(); n != 0 {
				t.Errorf("%d pages pending with no reader live", n)
			}
		})
	}
}

// TestLoadColumnarRefuses pins the entry point's preconditions.
func TestLoadColumnarRefuses(t *testing.T) {
	db := Open(0)
	rows := cpRows(rand.New(rand.NewSource(1)), 20)
	ct, err := buildSegments(db, rows)
	if err != nil {
		t.Fatal(err)
	}
	full := loadRowTable(t, db, "full", rows[:1])
	mustExec(t, db, "CREATE TABLE pk (g bigint PRIMARY KEY, s float, a bigint, b float)")
	pk, _ := db.Table("pk")
	wide, err := db.CreateTableClustered("wide", append(append([]Column(nil), cpCols...), Column{Name: "x", Type: TInt}), []string{"g", "s"})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := db.CreateTableClustered("swapped", cpCols, []string{"g", "b"})
	if err != nil {
		t.Fatal(err)
	}
	other := Open(0)
	foreign, err := other.CreateTableClustered("foreign", cpCols, []string{"g", "s"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tbl  *Table
		ct   *colstore.Table
	}{
		{"nil", swapped, nil},
		{"non-empty", full, ct},
		{"primary key", pk, ct},
		{"schema", wide, ct},
		{"key columns", swapped, ct},
		{"pool", foreign, ct},
	} {
		if err := tc.tbl.LoadColumnar(tc.ct); err == nil {
			t.Errorf("%s: LoadColumnar accepted", tc.name)
		}
	}
	if n := full.NumRows(); n != 1 {
		t.Errorf("a refused load changed the table: %d rows", n)
	}
}

// TestColumnarSegmentsReclaimed pins segment-page reclamation: every
// transition that stops referencing a version's segments — drop,
// truncate, a write that detaches them, a projection replaced — retires
// exactly those pages, and with no reader live they free at once.
func TestColumnarSegmentsReclaimed(t *testing.T) {
	rows := cpRows(rand.New(rand.NewSource(3)), 900)
	for _, tc := range []struct {
		name  string
		apply func(db *DB, tbl *Table) error
	}{
		{"drop", func(db *DB, tbl *Table) error { return db.DropTable(tbl.Name, false) }},
		{"truncate", func(_ *DB, tbl *Table) error { return tbl.Truncate() }},
		{"insert", func(_ *DB, tbl *Table) error { return tbl.Insert(rows[0]) }},
		{"bulk insert", func(_ *DB, tbl *Table) error { return tbl.BulkInsert(rows[:3]) }},
		{"replace all", func(_ *DB, tbl *Table) error { return tbl.ReplaceAll(rows[:3]) }},
		{"set columnar", func(_ *DB, tbl *Table) error { return tbl.SetColumnar(nil) }},
		{"rebuilt projection", func(_ *DB, tbl *Table) error {
			if err := tbl.Insert(rows[0]); err != nil {
				return err
			}
			if _, err := tbl.BuildColumnarProjection(); err != nil {
				return err
			}
			_, err := tbl.BuildColumnarProjection() // replaces the first projection
			if err != nil {
				return err
			}
			return tbl.SetColumnar(nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Open(0)
			tbl, err := loadColumnPrimary(db, "c", rows)
			if err != nil {
				t.Fatal(err)
			}
			segs := int64(len(tbl.Columnar().Segments()))
			before := db.Reclaimer().Stats()
			if err := tc.apply(db, tbl); err != nil {
				t.Fatal(err)
			}
			after := db.Reclaimer().Stats()
			if freed := after.Freed - before.Freed; freed < segs {
				t.Errorf("freed %d pages, want at least the %d segment pages", freed, segs)
			}
			if n := db.Reclaimer().Pending(); n != 0 {
				t.Errorf("%d pages pending with no reader live", n)
			}
		})
	}
}

// TestSnapshotKeepsColumnPrimarySegments pins deferred reclamation of a
// column-primary table's segments: an iterator (SQL) and a cursor opened
// before a re-install keep reading the old rows, and the old segments free
// only once both close.
func TestSnapshotKeepsColumnPrimarySegments(t *testing.T) {
	const n = 1200
	db := Open(0)
	install := func(gen int64) *Table {
		t.Helper()
		if err := db.DropTable("z", true); err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{Int(int64(i / 300)), Float(float64(i % 300)), Int(gen), Float(float64(i))}
		}
		tbl, err := loadColumnPrimary(db, "z", rows)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	old := install(1)
	segs := int64(len(old.Columnar().Segments()))
	it, err := db.QueryIter("SELECT a, b FROM z")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := old.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !it.Next() || !cur.Next() {
			t.Fatalf("premature end at row %d", i)
		}
	}
	before := db.Reclaimer().Stats()
	install(2)
	if got := int64(db.Reclaimer().Pending()); got < segs {
		t.Fatalf("%d pages pending after the re-install, want the %d old segment pages", got, segs)
	}
	if freed := db.Reclaimer().Stats().Freed - before.Freed; freed != 0 {
		t.Fatalf("%d pages freed while readers of the old rows were live", freed)
	}
	// Both readers drain the old rows intact.
	count := 10
	for it.Next() {
		if row := it.Row(); row[0].I != 1 || row[1].F != float64(count) {
			t.Fatalf("iterator row %d after re-install: %v", count, row)
		}
		count++
	}
	if err := it.Err(); err != nil || count != n {
		t.Fatalf("iterator drained %d rows (err %v), want %d", count, err, n)
	}
	it.Close()
	count = 10
	for cur.Next() {
		if row := cur.Row(); row[2].I != 1 || row[3].F != float64(count) {
			t.Fatalf("cursor row %d after re-install: %v", count, row)
		}
		count++
	}
	if err := cur.Err(); err != nil || count != n {
		t.Fatalf("cursor drained %d rows (err %v), want %d", count, err, n)
	}
	if db.Reclaimer().Stats().Freed != before.Freed {
		t.Fatal("old segments freed while the cursor was still open")
	}
	cur.Close()
	if freed := db.Reclaimer().Stats().Freed - before.Freed; freed < segs {
		t.Errorf("freed %d pages after the readers closed, want at least the %d old segment pages", freed, segs)
	}
	if got := db.Reclaimer().Pending(); got != 0 {
		t.Errorf("%d pages still pending after the last reader closed", got)
	}
	// The new table reads the new rows.
	rows := mustQuery(t, db, "SELECT MIN(a), MAX(a), COUNT(*) FROM z")
	rows.Next()
	if r := rows.Row(); r[0].I != 2 || r[1].I != 2 || r[2].I != n {
		t.Errorf("re-installed table reads %v", r)
	}
}

// FuzzColumnPrimaryCursor loads fuzzer-chosen rows — negative groups, sort
// ties, signed zeros, infinities and NaNs, in the fuzzer's order — as a
// row table and as a column-primary table, then compares random range
// scans at random eager widths, and the tables after one random write.
// The column-primary load may refuse (rows out of key order); when it
// accepts, every read must equal the row table's row for row.
func FuzzColumnPrimaryCursor(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, int64(1))
	f.Add([]byte{3, 3, 3, 3, 0x83, 0x83, 9, 9, 9, 12, 12}, int64(2))
	f.Add([]byte{0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 600 {
			data = data[:600]
		}
		sorts := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.25, 1, math.Inf(1),
			math.NaN(), math.Float64frombits(0xfff8000000000001)}
		rows := make([][]Value, len(data))
		for i, d := range data {
			rows[i] = []Value{Int(int64(d>>4) - 8), Float(sorts[int(d&0xf)%len(sorts)]), Int(int64(i)), Float(float64(d))}
		}
		rng := rand.New(rand.NewSource(seed))
		if seed%3 != 0 {
			keyOrder(rows) // mostly loadable; otherwise usually refused
		}
		db := Open(128) // a few hundred rows fit in a handful of pages
		colT, err := loadColumnPrimary(db, "c", rows)
		if err != nil {
			return // refused
		}
		rowT := loadRowTable(t, db, "r", rows)
		bound := func() []Value {
			vals := make([]Value, rng.Intn(3))
			if len(vals) > 0 {
				vals[0] = Int(int64(rng.Intn(18) - 9))
			}
			if len(vals) > 1 {
				if rng.Intn(4) == 0 {
					vals[1] = Int(int64(rng.Intn(3) - 1))
				} else {
					vals[1] = Float(sorts[rng.Intn(len(sorts))])
				}
			}
			return vals
		}
		check := func(what string) {
			rtv, ctv := rowT.View(), colT.View()
			for k := 0; k < 8; k++ {
				lo, hi := bound(), bound()
				rc, err := rtv.RangeScanPrefix(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				cc, err := ctv.RangeScanPrefix(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				eager := rng.Intn(len(cpCols) + 1)
				rc.SetEagerColumns(eager)
				cc.SetEagerColumns(eager)
				for i := 0; ; i++ {
					rn, cn := rc.Next(), cc.Next()
					if rn != cn {
						t.Fatalf("%s: bounds %v..%v: row table has row %d: %v, column-primary %v", what, lo, hi, i, rn, cn)
					}
					if !rn {
						break
					}
					if !sameRows([][]Value{rc.Decoded()}, [][]Value{cc.Decoded()}) ||
						!sameRows([][]Value{rc.Row()}, [][]Value{cc.Row()}) {
						t.Fatalf("%s: bounds %v..%v row %d: row table %v, column-primary %v", what, lo, hi, i, rc.Row(), cc.Row())
					}
				}
				if rc.Err() != nil || cc.Err() != nil {
					t.Fatalf("%s: cursor errors %v / %v", what, rc.Err(), cc.Err())
				}
				rc.Close()
				cc.Close()
			}
			want, err := drain(rtv.Scan())
			if err != nil {
				t.Fatal(err)
			}
			got, err := drain(ctv.Scan())
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(got, want) {
				t.Fatalf("%s: Scan: column-primary %v, row table %v", what, got, want)
			}
		}
		check("load")
		extra := []Value{Int(int64(rng.Intn(4) - 2)), Float(sorts[rng.Intn(len(sorts))]), Int(-1), Float(-1)}
		var write func(*Table) error
		switch rng.Intn(4) {
		case 0:
			write = func(tbl *Table) error { return tbl.Insert(extra) }
		case 1:
			write = func(tbl *Table) error { return tbl.BulkInsert([][]Value{extra, extra}) }
		case 2:
			write = func(tbl *Table) error { return tbl.Recluster([]string{"g", "s", "b"}) }
		default:
			write = func(tbl *Table) error { return tbl.Truncate() }
		}
		if err := write(rowT); err != nil {
			t.Fatal(err)
		}
		if err := write(colT); err != nil {
			t.Fatal(err)
		}
		check("write")
	})
}
