package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
)

// planFixture builds a small (zoneid, ra)-clustered table with four zones
// of three rows each — four colstore segments once it is converted to a
// columnstore — plus an unclustered side table for join plans.
func planFixture(t *testing.T) *DB {
	t.Helper()
	db := Open(256)
	mustExec(t, db, "CREATE TABLE Zone (zoneid bigint, ra float, dec float, val float)")
	mustExec(t, db, "CREATE CLUSTERED INDEX zc ON Zone (zoneid, ra)")
	for z := 0; z < 4; z++ {
		for i := 0; i < 3; i++ {
			mustExec(t, db, "INSERT INTO Zone VALUES (?, ?, ?, ?)",
				Int(int64(z)), Float(float64(10*z+i)), Float(float64(i)), Float(float64(z)+0.5))
		}
	}
	mustExec(t, db, "CREATE TABLE Obj (objid bigint PRIMARY KEY, name varchar(10))")
	mustExec(t, db, "INSERT INTO Obj VALUES (1, 'a'), (2, 'b')")
	return db
}

func mustExplain(t *testing.T, db *DB, sql string, args ...Value) string {
	t.Helper()
	plan, err := db.Explain(sql, args...)
	if err != nil {
		t.Fatalf("Explain(%q): %v", sql, err)
	}
	return plan
}

// TestExplainGoldenPlans pins the physical trees the planner emits for the
// engine's load-bearing shapes, over a row table and over the same table
// made column-primary. These are golden strings on purpose: a plan change
// must show up in review.
func TestExplainGoldenPlans(t *testing.T) {
	db := planFixture(t)

	// Row-store plans first.
	if got, want := mustExplain(t, db, "SELECT zoneid, ra FROM Zone"),
		"Project zoneid, ra  [est 12 rows]\n"+
			"└─ SeqScan Zone  [est 12 rows]"; got != want {
		t.Errorf("seq scan plan:\n%s\nwant:\n%s", got, want)
	}
	if got, want := mustExplain(t, db, "SELECT ra FROM Zone WHERE zoneid = 2"),
		"Project ra\n"+
			"└─ Filter zoneid = 2\n"+
			"   └─ RangeScan Zone (zoneid = 2)"; got != want {
		t.Errorf("range scan plan:\n%s\nwant:\n%s", got, want)
	}
	if got, want := mustExplain(t, db,
		"SELECT o.name, z.ra FROM Zone z JOIN Obj o ON o.objid = z.zoneid WHERE z.ra > 10 ORDER BY z.ra DESC"),
		"Sort z.ra DESC\n"+
			"└─ Project name, ra\n"+
			"   └─ Filter z.ra > 10\n"+
			"      └─ HashJoin on o.objid = z.zoneid\n"+
			"         ├─ SeqScan Zone AS z  [est 12 rows]\n"+
			"         └─ SeqScan Obj AS o  [est 2 rows]"; got != want {
		t.Errorf("hash join plan:\n%s\nwant:\n%s", got, want)
	}

	// Convert through the SQL DDL path: scans and aggregates switch to
	// ColumnarScan, with directory pruning on the leading key and column
	// pruning from the statement's referenced set.
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX zc ON Zone (zoneid, ra)")
	if got, want := mustExplain(t, db, "SELECT * FROM Zone"),
		"Project zoneid, ra, dec, val  [est 12 rows]\n"+
			"└─ ColumnarScan Zone [4 segments]  [est 12 rows]"; got != want {
		t.Errorf("columnar scan plan:\n%s\nwant:\n%s", got, want)
	}
	if got, want := mustExplain(t, db, "SELECT SUM(val) FROM Zone WHERE zoneid = 2"),
		"Aggregate SUM(val)\n"+
			"└─ Filter zoneid = 2\n"+
			"   └─ ColumnarScan Zone [1 segments, 2/4 cols]  [est 3 rows]"; got != want {
		t.Errorf("columnar aggregate plan:\n%s\nwant:\n%s", got, want)
	}
	if got, want := mustExplain(t, db, "SELECT DISTINCT zoneid FROM Zone ORDER BY zoneid LIMIT 2"),
		"Limit 2  [est 2 rows]\n"+
			"└─ Distinct\n"+
			"   └─ Sort zoneid  [est 12 rows]\n"+
			"      └─ Project zoneid  [est 12 rows]\n"+
			"         └─ ColumnarScan Zone [4 segments, 1/4 cols]  [est 12 rows]"; got != want {
		t.Errorf("limit/distinct/sort plan:\n%s\nwant:\n%s", got, want)
	}

	// EXPLAIN ANALYZE executes and reports actuals.
	analyzed := mustExplain(t, db, "EXPLAIN ANALYZE SELECT ra FROM Zone WHERE zoneid = 2")
	if !strings.Contains(analyzed, "Filter zoneid = 2  [actual 3 rows]") ||
		!strings.Contains(analyzed, "ColumnarScan Zone [1 segments, 2/4 cols]  [est 3, actual 3 rows]") {
		t.Errorf("EXPLAIN ANALYZE missing actual counts:\n%s", analyzed)
	}
	// Plain EXPLAIN must not execute: a query via the Exec path returns
	// the plan's line count, and the plan shows estimates only.
	plain := mustQuery(t, db, "EXPLAIN SELECT ra FROM Zone WHERE zoneid = 2")
	if plain.Len() < 3 || strings.Contains(plain.data[0][0].S, "actual") {
		t.Errorf("plain EXPLAIN looks wrong: %v", plain.All())
	}

	// A write publishes a row version: the row plan is back.
	mustExec(t, db, "INSERT INTO Zone VALUES (9, 99.0, 0.0, 9.5)")
	if got, want := mustExplain(t, db, "SELECT ra FROM Zone WHERE zoneid = 2"),
		"Project ra\n"+
			"└─ Filter zoneid = 2\n"+
			"   └─ RangeScan Zone (zoneid = 2)"; got != want {
		t.Errorf("range scan plan after a write:\n%s\nwant:\n%s", got, want)
	}
}

// TestColumnstoreIndexMatchesClusteredIndex pins CREATE CLUSTERED
// COLUMNSTORE INDEX against its oracle, CREATE CLUSTERED INDEX on the same
// columns over a twin table: the converted table plans ColumnarScan and
// every query returns the twin's rows, SELECT * in the twin's order, so
// ties on the key keep the scan order they had before the conversion.
// Every write publishes a row version again, the twin still agrees, and a
// second conversion brings the segments back.
func TestColumnstoreIndexMatchesClusteredIndex(t *testing.T) {
	db := Open(256)
	// Unclustered twins, filled in one shuffled order with many (g, s)
	// ties, so the conversion's tie order is the insertion order.
	for _, name := range []string{"cs", "ci"} {
		mustExec(t, db, "CREATE TABLE "+name+" (g bigint, s float, a bigint, b float)")
	}
	rng := rand.New(rand.NewSource(11))
	sorts := []float64{-1, math.Copysign(0, -1), 0, 0.5, 2}
	for i := 0; i < 700; i++ {
		args := []Value{Int(int64(rng.Intn(4) - 1)), Float(sorts[rng.Intn(len(sorts))]), Int(int64(i)), Float(rng.Float64())}
		mustExec(t, db, "INSERT INTO cs VALUES (?, ?, ?, ?)", args...)
		mustExec(t, db, "INSERT INTO ci VALUES (?, ?, ?, ?)", args...)
	}
	queries := []string{
		"SELECT * FROM T",
		"SELECT s, a FROM T WHERE g BETWEEN 0 AND 1",
		"SELECT a, b FROM T WHERE g = 0 AND s BETWEEN -1 AND 0",
		"SELECT g, COUNT(*), SUM(a), MIN(s), MAX(b) FROM T GROUP BY g ORDER BY g",
		"SELECT a FROM T WHERE b > 0.5 ORDER BY s DESC, a",
		"SELECT x.a, y.a FROM T x JOIN T y ON y.a = x.a + 1 WHERE x.g = 1",
	}
	cs, _ := db.Table("cs")
	same := func(when string) {
		t.Helper()
		for _, q := range queries {
			got := mustQuery(t, db, strings.ReplaceAll(q, " T", " cs"))
			want := mustQuery(t, db, strings.ReplaceAll(q, " T", " ci"))
			if got.Len() == 0 {
				t.Fatalf("%s: %s returns no rows; the comparison is vacuous", when, q)
			}
			compareRows(t, when+": "+q, got, want)
		}
	}
	columnar := func(when string) {
		t.Helper()
		mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX k ON cs (g, s)")
		mustExec(t, db, "CREATE CLUSTERED INDEX k ON ci (g, s)")
		if cs.Columnar() == nil {
			t.Fatalf("%s: the conversion published no segments", when)
		}
		if plan := mustExplain(t, db, "SELECT * FROM cs"); !strings.Contains(plan, "ColumnarScan cs") {
			t.Errorf("%s: the converted table does not plan ColumnarScan:\n%s", when, plan)
		}
		same(when)
	}
	columnar("converted")
	for _, w := range []string{
		"INSERT INTO T VALUES (0, 0.0, -1, 0.75)",
		"INSERT INTO T SELECT g, s, a + 1000, b FROM T WHERE g = 1",
		"UPDATE T SET s = s + 1 WHERE a % 3 = 0",
		"DELETE FROM T WHERE a % 5 = 0",
	} {
		mustExec(t, db, strings.ReplaceAll(w, " T", " cs"))
		mustExec(t, db, strings.ReplaceAll(w, " T", " ci"))
		if cs.Columnar() != nil {
			t.Fatalf("%s left segments on the table", w)
		}
		if plan := mustExplain(t, db, "SELECT * FROM cs"); strings.Contains(plan, "ColumnarScan") {
			t.Errorf("%s: a row table still plans ColumnarScan:\n%s", w, plan)
		}
		same(w)
		columnar(w + ", converted again")
	}
	mustExec(t, db, "TRUNCATE TABLE cs")
	if cs.Columnar() != nil || cs.NumRows() != 0 {
		t.Fatal("TRUNCATE left segments on the table")
	}
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX k ON cs (g, s)")
	if n := mustQuery(t, db, "SELECT * FROM cs").Len(); n != 0 || cs.Columnar() == nil {
		t.Errorf("converting an empty table: %d rows, segments %v", n, cs.Columnar())
	}
	if n := db.Reclaimer().Pending(); n != 0 {
		t.Errorf("%d pages pending with no reader live", n)
	}
}

// TestColumnarProjectionSQLEquivalence pins that the ColumnarScan plan is
// an invisible swap: every query shape, joins to a row table included,
// returns bit-identical rows after CREATE CLUSTERED COLUMNSTORE INDEX on
// the key the table was clustered on as it did on the row store before,
// and any write falls back to the row plan keeping every row.
func TestColumnarProjectionSQLEquivalence(t *testing.T) {
	db := planFixture(t)
	queries := []string{
		"SELECT * FROM Zone",
		"SELECT ra, val FROM Zone WHERE zoneid BETWEEN 1 AND 2",
		"SELECT zoneid, COUNT(*), SUM(val) FROM Zone GROUP BY zoneid ORDER BY zoneid",
		"SELECT ra FROM Zone WHERE val > 1.0 ORDER BY ra DESC",
		"SELECT z.ra, o.name FROM Zone z JOIN Obj o ON o.objid = z.zoneid",
	}
	before := make([]*Rows, len(queries))
	for i, q := range queries {
		before[i] = mustQuery(t, db, q)
	}
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX zc ON Zone (zoneid, ra)")
	zt, _ := db.Table("Zone")
	if zt.Columnar() == nil {
		t.Fatal("CREATE CLUSTERED COLUMNSTORE INDEX published no segments")
	}
	for i, q := range queries {
		compareRows(t, q, mustQuery(t, db, q), before[i])
	}

	mustExec(t, db, "INSERT INTO Zone VALUES (9, 99.0, 0.0, 9.5)")
	if zt.Columnar() != nil {
		t.Fatal("a write left segments on the table")
	}
	if plan := mustExplain(t, db, "SELECT * FROM Zone"); strings.Contains(plan, "ColumnarScan") {
		t.Errorf("a row table still plans ColumnarScan:\n%s", plan)
	}
	cnt := mustQuery(t, db, "SELECT COUNT(*) FROM Zone")
	cnt.Next()
	if cnt.Row()[0].I != 13 {
		t.Errorf("count after the write = %d, want 13", cnt.Row()[0].I)
	}
}

func compareRows(t *testing.T, label string, got, want *Rows) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i, g := range got.All() {
		w := want.All()[i]
		for c := range g {
			if !sameValue(g[c], w[c]) {
				t.Fatalf("%s row %d col %d: %#v, want %#v", label, i, c, g[c], w[c])
			}
		}
	}
}

// TestColumnstoreIndexRefuses pins the conversion's requirements: a key of
// exactly (integer, float) columns, only numeric columns, no NULL, and no
// PRIMARY KEY. Each refusal publishes nothing: the table keeps its
// version, rows and storage. Nor does a build that fails, which also
// keeps no page.
func TestColumnstoreIndexRefuses(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE z (g bigint, s float, n bigint, v float)")
	mustExec(t, db, "INSERT INTO z VALUES (1, 2.0, 3, 4.0), (0, 1.0, 2, 3.0)")
	mustExec(t, db, "CREATE TABLE txt (g bigint, s float, name varchar(10))")
	mustExec(t, db, "INSERT INTO txt VALUES (1, 2.0, 'a')")
	mustExec(t, db, "CREATE TABLE nn (g bigint, s float, v float)")
	mustExec(t, db, "INSERT INTO nn (g, s) VALUES (1, 2.0)")
	mustExec(t, db, "CREATE TABLE pk (g bigint PRIMARY KEY, s float)")
	mustExec(t, db, "INSERT INTO pk VALUES (1, 2.0)")
	for _, tc := range []struct{ sql, table, msg string }{
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON z (g)", "z", "key must be"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON z (s, g)", "z", "key must be"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON z (g, n)", "z", "key must be"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON z (g, s, v)", "z", "key must be"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON z (g, nosuch)", "z", "no column"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON txt (g, s)", "txt", "non-numeric"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON nn (g, s)", "nn", "NULL"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON pk (g, s)", "pk", "PRIMARY KEY"},
		{"CREATE CLUSTERED COLUMNSTORE INDEX k ON nosuch (g, s)", "", "unknown table"},
	} {
		var seq int64
		var before *Rows
		tbl, ok := db.Table(tc.table)
		if ok {
			seq = tbl.View().Seq()
			before = mustQuery(t, db, "SELECT * FROM "+tc.table)
		}
		if _, err := db.Exec(tc.sql); err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want one naming %q", tc.sql, err, tc.msg)
			continue
		}
		if !ok {
			continue
		}
		if tbl.View().Seq() != seq || tbl.Columnar() != nil {
			t.Errorf("%s: the refusal published a version", tc.sql)
		}
		compareRows(t, tc.sql, mustQuery(t, db, "SELECT * FROM "+tc.table), before)
	}
	if n := db.Reclaimer().Pending(); n != 0 {
		t.Errorf("%d pages pending after refusals", n)
	}

	// A segment page that cannot be allocated fails the conversion: the
	// table keeps its version and no page stays allocated.
	fdb, st := openLive(64)
	tbl, err := fdb.CreateTableClustered("c", cpCols, []string{"g", "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkInsert(cpRows(rand.New(rand.NewSource(3)), 1500)); err != nil {
		t.Fatal(err)
	}
	seq, start, allocs := tbl.View().Seq(), st.live, 0
	fdb.Pool().SetFaultHooks(&storage.FaultHooks{Alloc: func() error {
		if allocs++; allocs == 4 {
			return errors.New("injected")
		}
		return nil
	}})
	if _, err := fdb.Exec("CREATE CLUSTERED COLUMNSTORE INDEX k ON c (g, s)"); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("conversion under an allocation fault: err = %v", err)
	}
	if tbl.View().Seq() != seq || tbl.Columnar() != nil || st.live != start {
		t.Errorf("the failed conversion published a version or kept %d pages", st.live-start)
	}
}

// TestQueryIterStreams pins the streaming result API: same rows as Query
// for streaming and blocking pipelines, early Close releases the plan, and
// a large scan arrives row by row.
func TestQueryIterStreams(t *testing.T) {
	db := Open(256)
	mustExec(t, db, "CREATE TABLE t (k bigint PRIMARY KEY, v float)")
	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %g)", i, float64(i)*0.5)
	}
	mustExec(t, db, ins.String())

	for _, q := range []string{
		"SELECT k, v FROM t WHERE v > 100.0",
		"SELECT k FROM t ORDER BY v DESC LIMIT 10",
		"SELECT COUNT(*), SUM(v) FROM t",
	} {
		want := mustQuery(t, db, q)
		it, err := db.QueryIter(q)
		if err != nil {
			t.Fatalf("QueryIter(%q): %v", q, err)
		}
		if strings.Join(it.Columns(), ",") != strings.Join(want.Columns, ",") {
			t.Fatalf("%s: columns %v, want %v", q, it.Columns(), want.Columns)
		}
		i := 0
		for it.Next() {
			w := want.All()[i]
			for c := range w {
				if it.Row()[c] != w[c] {
					t.Fatalf("%s row %d: %v, want %v", q, i, it.Row(), w)
				}
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if i != want.Len() {
			t.Fatalf("%s: streamed %d rows, want %d", q, i, want.Len())
		}
		it.Close()
	}

	// Early close after a prefix: no panic, no further rows.
	it, err := db.QueryIter("SELECT k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && it.Next(); i++ {
	}
	it.Close()
	if it.Next() {
		t.Error("Next returned a row after Close")
	}
	it.Close() // double close is safe
}

// TestContextualKeywordsStayIdentifiers pins that EXPLAIN, ANALYZE and
// COLUMNSTORE are contextual, not reserved: a catalog whose tables or
// columns use those words (plausible in astronomy schemas) must stay
// fully queryable, while the statements using them still parse.
func TestContextualKeywordsStayIdentifiers(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE t (id bigint PRIMARY KEY, projection float, columnar float, analyze float, explain float, columnstore float)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2.0, 3.0, 4.0, 5.0, 6.0)")
	rows := mustQuery(t, db, "SELECT projection, columnar, analyze, explain, columnstore FROM t WHERE columnstore > 1.0 ORDER BY columnar")
	if rows.Len() != 1 || rows.All()[0][0].F != 2.0 || rows.All()[0][3].F != 5.0 || rows.All()[0][4].F != 6.0 {
		t.Fatalf("contextual-keyword columns misread: %v", rows.All())
	}
	// An index, a table and a key column named columnstore, converted by
	// the statement the word introduces.
	mustExec(t, db, "CREATE TABLE columnstore (columnstore bigint, ra float)")
	mustExec(t, db, "INSERT INTO columnstore VALUES (2, 1.0), (1, 3.0)")
	mustExec(t, db, "CREATE CLUSTERED INDEX columnstore ON columnstore (columnstore, ra)")
	mustExec(t, db, "CREATE CLUSTERED COLUMNSTORE INDEX columnstore ON columnstore (columnstore, ra)")
	if cs, _ := db.Table("columnstore"); cs.Columnar() == nil {
		t.Fatal("CREATE CLUSTERED COLUMNSTORE INDEX converted nothing")
	}
	if r := mustQuery(t, db, "SELECT columnstore FROM columnstore"); r.Len() != 2 || r.All()[0][0].I != 1 {
		t.Fatalf("table named columnstore misread: %v", r.All())
	}
	mustExec(t, db, "CREATE TABLE explain (analyze bigint PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO explain VALUES (7)")
	r2 := mustQuery(t, db, "SELECT analyze FROM explain")
	if r2.Len() != 1 || r2.All()[0][0].I != 7 {
		t.Fatalf("table named explain misread: %v", r2.All())
	}
	// The contextual forms themselves still work.
	if plan := mustExplain(t, db, "EXPLAIN SELECT projection FROM t"); !strings.Contains(plan, "SeqScan t") {
		t.Fatalf("EXPLAIN broke: %s", plan)
	}
	if plan := mustExplain(t, db, "EXPLAIN ANALYZE SELECT id FROM t"); !strings.Contains(plan, "actual 1 rows") {
		t.Fatalf("EXPLAIN ANALYZE broke: %s", plan)
	}
}

// TestExplainThroughQueryAndExec pins the statement surface: EXPLAIN works
// through Query (one "plan" column) and Exec (row count), and Explain
// accepts both bare SELECTs and EXPLAIN wrappers.
func TestExplainThroughQueryAndExec(t *testing.T) {
	db := planFixture(t)
	rows := mustQuery(t, db, "EXPLAIN SELECT zoneid FROM Zone")
	if len(rows.Columns) != 1 || rows.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN columns = %v", rows.Columns)
	}
	n := mustExec(t, db, "EXPLAIN SELECT zoneid FROM Zone")
	if int(n) != rows.Len() {
		t.Fatalf("Exec(EXPLAIN) = %d rows, Query saw %d", n, rows.Len())
	}
	s1, err := db.Explain("SELECT zoneid FROM Zone")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Explain("EXPLAIN SELECT zoneid FROM Zone")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || s1 == "" {
		t.Fatalf("Explain disagrees with itself:\n%s\nvs\n%s", s1, s2)
	}
	if _, err := db.Explain("INSERT INTO Obj VALUES (3, 'c')"); err == nil {
		t.Error("Explain accepted a non-SELECT")
	}
}
