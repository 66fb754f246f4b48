package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func mustExec(t *testing.T, db *DB, sql string, args ...Value) int64 {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s', 1.5e3 FROM t -- comment\nWHERE x >= ?")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "1.5e3", "FROM", "t", "WHERE", "x", ">=", "?", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[3] != tokString {
		t.Error("escaped string literal not lexed as string")
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "/* unterminated", "[unterminated", "a $ b \x01"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := lex("/* block\ncomment */ SELECT -- line\n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].text != "SELECT" || toks[1].text != "1" {
		t.Errorf("comments not skipped: %v", toks)
	}
}

func TestParserStatements(t *testing.T) {
	good := []string{
		"SELECT 1",
		"SELECT a, b AS x FROM t WHERE a > 1 AND b BETWEEN 2 AND 3",
		"SELECT * FROM t ORDER BY a DESC, b LIMIT 10",
		"SELECT TOP 5 * FROM t",
		"SELECT t.*, u.x FROM t JOIN u ON t.id = u.id",
		"SELECT a FROM t CROSS JOIN u",
		"SELECT a FROM t LEFT JOIN u ON t.id = u.id",
		"SELECT COUNT(*), SUM(x) FROM t GROUP BY y HAVING COUNT(*) > 1",
		"SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t",
		"SELECT CAST(a AS FLOAT) FROM t",
		"SELECT * FROM fGetNearbyObjEqZd(2.5, 3.0, 0.5) n JOIN g ON g.id = n.id",
		"CREATE TABLE k (zid int IDENTITY(1,1) PRIMARY KEY NOT NULL, z real, radius float)",
		"CREATE CLUSTERED INDEX ix ON zone(zoneid, ra)",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"INSERT t SELECT a, b FROM u WHERE a < 5",
		"UPDATE t SET a = a + 1 WHERE b = 'x'",
		"DELETE FROM t WHERE a IS NOT NULL",
		"DROP TABLE IF EXISTS t",
		"TRUNCATE TABLE t",
		"SELECT a FROM db.dbo.t",
		"SELECT dbo.fBCGr200(ngal) FROM c",
		"SELECT a FROM t WHERE x IN (1, 2, 3) AND y NOT IN (4)",
		"SELECT a FROM t WHERE name LIKE 'gal%' AND x NOT BETWEEN 1 AND 2",
	}
	for _, sql := range good {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"CREATE TABLE t",
		"CREATE INDEX ON t(a)",
		"INSERT INTO t VALUES",
		"FLY ME TO THE MOON",
		"SELECT a FROM t JOIN u", // missing ON
		"SELECT CASE END",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseScriptMultiStatement(t *testing.T) {
	stmts, err := ParseScript("CREATE TABLE t (a int); INSERT INTO t VALUES (1); SELECT * FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Float(2.0), 0},
		{Float(3.5), Int(3), 1},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		// Two BIGINTs compare exactly past float64's 2^53.
		{Int(1 << 53), Int(1<<53 + 1), -1},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		{Int(1<<53 + 1), Float(1 << 53), 0}, // mixed: float
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(Int(1), String("1")); err == nil {
		t.Error("cross-type int/string compare should error")
	}
	if _, err := Compare(Null(), Int(1)); err == nil {
		t.Error("NULL compare should error")
	}
}

func TestCRUDRoundTrip(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE galaxy (objid bigint PRIMARY KEY, ra float, dec float, i real)")
	mustExec(t, db, "INSERT INTO galaxy VALUES (1, 195.1, 2.5, 17.2), (2, 195.2, 2.6, 18.0), (3, 195.3, 2.7, 19.5)")

	rows := mustQuery(t, db, "SELECT objid, i FROM galaxy WHERE ra > 195.15 ORDER BY i DESC")
	if rows.Len() != 2 {
		t.Fatalf("got %d rows", rows.Len())
	}
	rows.Next()
	if rows.Row()[0].I != 3 {
		t.Errorf("first row objid = %v, want 3", rows.Row()[0])
	}

	if n := mustExec(t, db, "UPDATE galaxy SET i = i + 1 WHERE objid = 2"); n != 1 {
		t.Errorf("UPDATE affected %d", n)
	}
	rows = mustQuery(t, db, "SELECT i FROM galaxy WHERE objid = 2")
	rows.Next()
	if got, _ := rows.Row()[0].AsFloat(); math.Abs(got-19.0) > 1e-6 {
		t.Errorf("updated i = %g", got)
	}

	if n := mustExec(t, db, "DELETE FROM galaxy WHERE i > 19.2"); n != 1 {
		t.Errorf("DELETE affected %d", n)
	}
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM galaxy")
	rows.Next()
	if rows.Row()[0].I != 2 {
		t.Errorf("count after delete = %v", rows.Row()[0])
	}

	if n := mustExec(t, db, "TRUNCATE TABLE galaxy"); n != 2 {
		t.Errorf("TRUNCATE reported %d", n)
	}
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM galaxy")
	rows.Next()
	if rows.Row()[0].I != 0 {
		t.Error("table not empty after TRUNCATE")
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE t (id bigint PRIMARY KEY, x int)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10)")
	if _, err := db.Exec("INSERT INTO t VALUES (1, 20)"); err == nil {
		t.Error("duplicate primary key accepted")
	}
}

func TestIdentityColumn(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE k (zid int IDENTITY(1,1) PRIMARY KEY, z real)")
	mustExec(t, db, "INSERT INTO k (z) VALUES (0.01), (0.02), (0.03)")
	rows := mustQuery(t, db, "SELECT zid, z FROM k ORDER BY zid")
	for i := 1; rows.Next(); i++ {
		if rows.Row()[0].I != int64(i) {
			t.Errorf("identity row %d has zid %v", i, rows.Row()[0])
		}
	}
}

// TestIdentitySurvivesRewrites: UPDATE, DELETE and CREATE CLUSTERED INDEX
// rewrite the table, its rows keep their identity values, and the next
// INSERT continues the sequence; only TRUNCATE restarts it.
func TestIdentitySurvivesRewrites(t *testing.T) {
	ids := func(db *DB) []int64 {
		var out []int64
		for rows := mustQuery(t, db, "SELECT id FROM t ORDER BY id"); rows.Next(); {
			out = append(out, rows.Row()[0].I)
		}
		return out
	}
	for _, tc := range []struct {
		rewrite string
		want    []int64
	}{
		{"UPDATE t SET v = v + 1 WHERE v > 2", []int64{1, 2, 3, 4}},
		{"DELETE FROM t WHERE v = 2", []int64{1, 3, 4}},
		{"CREATE CLUSTERED INDEX cv ON t (v)", []int64{1, 2, 3, 4}},
	} {
		db := Open(64)
		mustExec(t, db, "CREATE TABLE t (id bigint IDENTITY(1,1), v float)")
		for _, v := range []string{"1", "2", "3"} {
			mustExec(t, db, "INSERT INTO t (v) VALUES ("+v+")")
		}
		mustExec(t, db, tc.rewrite)
		mustExec(t, db, "INSERT INTO t (v) VALUES (10)")
		if got := ids(db); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("after %s: ids %v, want %v", tc.rewrite, got, tc.want)
		}
		mustExec(t, db, "TRUNCATE TABLE t")
		mustExec(t, db, "INSERT INTO t (v) VALUES (10)")
		if got := ids(db); !reflect.DeepEqual(got, []int64{1}) {
			t.Errorf("after %s and TRUNCATE: ids %v, want [1]", tc.rewrite, got)
		}
	}
}

func TestJoins(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE g (id bigint PRIMARY KEY, zone int)")
	mustExec(t, db, "CREATE TABLE z (zone int, name text)")
	mustExec(t, db, "INSERT INTO g VALUES (1, 10), (2, 11), (3, 12)")
	mustExec(t, db, "INSERT INTO z VALUES (10, 'a'), (11, 'b'), (99, 'x')")

	// Inner (hash) join.
	rows := mustQuery(t, db, "SELECT g.id, z.name FROM g JOIN z ON g.zone = z.zone ORDER BY g.id")
	if rows.Len() != 2 {
		t.Fatalf("inner join returned %d rows", rows.Len())
	}
	rows.Next()
	if rows.Row()[1].S != "a" {
		t.Errorf("join row 1 name = %v", rows.Row()[1])
	}

	// Left join pads with NULL.
	rows = mustQuery(t, db, "SELECT g.id, z.name FROM g LEFT JOIN z ON g.zone = z.zone ORDER BY g.id")
	if rows.Len() != 3 {
		t.Fatalf("left join returned %d rows", rows.Len())
	}
	var last []Value
	for rows.Next() {
		last = rows.Row()
	}
	if !last[1].IsNull() {
		t.Errorf("unmatched left join row name = %v, want NULL", last[1])
	}

	// Cross join.
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM g CROSS JOIN z")
	rows.Next()
	if rows.Row()[0].I != 9 {
		t.Errorf("cross join count = %v, want 9", rows.Row()[0])
	}

	// Non-equi join falls back to nested loop:
	// (10,11) (10,99) (11,99) (12,99).
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM g JOIN z ON g.zone < z.zone")
	rows.Next()
	if rows.Row()[0].I != 4 {
		t.Errorf("non-equi join count = %v, want 4", rows.Row()[0])
	}
}

func TestAggregates(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE m (grp int, v float)")
	mustExec(t, db, "INSERT INTO m VALUES (1, 10), (1, 20), (2, 5), (2, NULL), (3, 7)")

	rows := mustQuery(t, db, "SELECT grp, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM m GROUP BY grp ORDER BY grp")
	want := []struct {
		grp, cstar, cv int64
		sum, avg       float64
		min, max       float64
	}{
		{1, 2, 2, 30, 15, 10, 20},
		{2, 2, 1, 5, 5, 5, 5},
		{3, 1, 1, 7, 7, 7, 7},
	}
	i := 0
	for rows.Next() {
		r := rows.Row()
		w := want[i]
		if r[0].I != w.grp || r[1].I != w.cstar || r[2].I != w.cv {
			t.Errorf("group %d counts = %v %v %v", w.grp, r[0], r[1], r[2])
		}
		if s, _ := r[3].AsFloat(); s != w.sum {
			t.Errorf("group %d sum = %v", w.grp, r[3])
		}
		if a, _ := r[4].AsFloat(); a != w.avg {
			t.Errorf("group %d avg = %v", w.grp, r[4])
		}
		i++
	}
	if i != 3 {
		t.Fatalf("got %d groups", i)
	}

	// Grand aggregate over empty input yields one row.
	mustExec(t, db, "CREATE TABLE empty (x int)")
	rows = mustQuery(t, db, "SELECT COUNT(*), SUM(x) FROM empty")
	rows.Next()
	if rows.Row()[0].I != 0 || !rows.Row()[1].IsNull() {
		t.Errorf("empty aggregate = %v, %v", rows.Row()[0], rows.Row()[1])
	}

	// HAVING filters groups.
	rows = mustQuery(t, db, "SELECT grp FROM m GROUP BY grp HAVING COUNT(v) >= 2")
	if rows.Len() != 1 {
		t.Errorf("HAVING kept %d groups, want 1", rows.Len())
	}

	// MAX(LOG(ngal+1) - chisq), the paper's likelihood aggregation shape.
	mustExec(t, db, "CREATE TABLE cs (ngal int, chisq float)")
	mustExec(t, db, "INSERT INTO cs VALUES (3, 1.0), (10, 4.0), (0, 0.1)")
	rows = mustQuery(t, db, "SELECT MAX(LOG(ngal+1) - chisq) FROM cs WHERE ngal > 0")
	rows.Next()
	got, _ := rows.Row()[0].AsFloat()
	want2 := math.Log(4) - 1.0
	if math.Abs(got-want2) > 1e-12 {
		t.Errorf("likelihood max = %g, want %g", got, want2)
	}
}

func TestDistinctTopLimit(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE d (x int)")
	mustExec(t, db, "INSERT INTO d VALUES (1), (2), (2), (3), (3), (3)")
	rows := mustQuery(t, db, "SELECT DISTINCT x FROM d ORDER BY x")
	if rows.Len() != 3 {
		t.Errorf("DISTINCT returned %d rows", rows.Len())
	}
	rows = mustQuery(t, db, "SELECT TOP 2 x FROM d ORDER BY x DESC")
	if rows.Len() != 2 {
		t.Errorf("TOP returned %d rows", rows.Len())
	}
	rows.Next()
	if rows.Row()[0].I != 3 {
		t.Errorf("TOP first row = %v", rows.Row()[0])
	}
	rows = mustQuery(t, db, "SELECT x FROM d LIMIT 4")
	if rows.Len() != 4 {
		t.Errorf("LIMIT returned %d rows", rows.Len())
	}
}

func TestExpressionSemantics(t *testing.T) {
	db := Open(64)
	cases := []struct {
		sql  string
		want Value
	}{
		{"SELECT 1 + 2 * 3", Int(7)},
		{"SELECT (1 + 2) * 3", Int(9)},
		{"SELECT 7 / 2", Int(3)},       // integer division
		{"SELECT 7.0 / 2", Float(3.5)}, // float division
		{"SELECT 7 % 3", Int(1)},
		{"SELECT -POWER(2, 10)", Float(-1024)},
		{"SELECT FLOOR((2.5 + 90.0) / 0.00833333333333)", Float(11100)},
		{"SELECT ABS(-3)", Int(3)},
		{"SELECT CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END", String("b")},
		{"SELECT CASE WHEN 1 > 2 THEN 'a' END", Null()},
		{"SELECT CAST(3.9 AS INT)", Int(3)},
		{"SELECT CAST('42' AS BIGINT)", Int(42)},
		{"SELECT 'a' || 'b'", String("ab")},
		{"SELECT 1 BETWEEN 0 AND 2", Bool(true)},
		{"SELECT 5 NOT BETWEEN 0 AND 2", Bool(true)},
		{"SELECT 2 IN (1, 2, 3)", Bool(true)},
		{"SELECT NULL IS NULL", Bool(true)},
		{"SELECT 1 IS NOT NULL", Bool(true)},
		{"SELECT 'galaxy' LIKE 'gal%'", Bool(true)},
		{"SELECT 'galaxy' LIKE 'g_laxy'", Bool(true)},
		{"SELECT 'galaxy' LIKE 'gx%'", Bool(false)},
		{"SELECT COALESCE(NULL, NULL, 5)", Int(5)},
		{"SELECT ISNULL(NULL, 9)", Int(9)},
		{"SELECT NULLIF(3, 3)", Null()},
		{"SELECT RADIANS(180.0)", Float(math.Pi)},
		{"SELECT NOT TRUE", Bool(false)},
		{"SELECT NULL + 1", Null()},
		{"SELECT SIGN(-2.5)", Float(-1)},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, c.sql)
		if !rows.Next() {
			t.Fatalf("%q returned no rows", c.sql)
		}
		got := rows.Row()[0]
		if got.T != c.want.T {
			t.Errorf("%q = %v (%s), want %v (%s)", c.sql, got, got.T, c.want, c.want.T)
			continue
		}
		if got.T == TFloat {
			if math.Abs(got.F-c.want.F) > 1e-9 {
				t.Errorf("%q = %v, want %v", c.sql, got, c.want)
			}
		} else if got != c.want {
			t.Errorf("%q = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	db := Open(64)
	bad := []string{
		"SELECT 1 / 0",
		"SELECT SQRT(-1)",
		"SELECT LOG(0)",
		"SELECT NOSUCHFUNC(1)",
		"SELECT 'a' + 1",
		"SELECT CAST('xyz' AS INT)",
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("%q succeeded, want error", sql)
		}
	}
}

func TestParams(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE p (x int)")
	mustExec(t, db, "INSERT INTO p VALUES (?), (?), (?)", Int(1), Int(2), Int(3))
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM p WHERE x BETWEEN ? AND ?", Int(2), Int(9))
	rows.Next()
	if rows.Row()[0].I != 2 {
		t.Errorf("param query count = %v", rows.Row()[0])
	}
	if _, err := db.Query("SELECT ?"); err == nil {
		t.Error("missing parameter accepted")
	}
}

func TestScalarUDFAndTVF(t *testing.T) {
	db := Open(64)
	db.RegisterScalar("fBCGr200", func(args []Value) (Value, error) {
		n, err := args[0].AsFloat()
		if err != nil {
			return Value{}, err
		}
		return Float(0.17 * math.Pow(n, 0.51)), nil
	})
	rows := mustQuery(t, db, "SELECT dbo.fBCGr200(100.0)")
	rows.Next()
	if got, _ := rows.Row()[0].AsFloat(); math.Abs(got-1.78) > 0.02 {
		t.Errorf("fBCGr200(100) = %g", got)
	}

	db.RegisterTVF("fRange", &TVF{
		Cols: []Column{{Name: "n", Type: TInt}},
		Fn: func(args []Value) ([][]Value, error) {
			hi, err := args[0].AsInt()
			if err != nil {
				return nil, err
			}
			var rows [][]Value
			for i := int64(0); i < hi; i++ {
				rows = append(rows, []Value{Int(i)})
			}
			return rows, nil
		},
	})
	rows = mustQuery(t, db, "SELECT SUM(r.n) FROM fRange(5) r")
	rows.Next()
	if rows.Row()[0].I != 10 {
		t.Errorf("TVF sum = %v", rows.Row()[0])
	}
	// TVF joined with a table, the fGetNearbyObjEqZd JOIN Galaxy shape.
	mustExec(t, db, "CREATE TABLE gx (id bigint PRIMARY KEY, mag float)")
	mustExec(t, db, "INSERT INTO gx VALUES (0, 17.0), (2, 18.0), (4, 19.0)")
	rows = mustQuery(t, db, "SELECT g.mag FROM fRange(5) n JOIN gx g ON g.id = n.n ORDER BY g.mag")
	if rows.Len() != 3 {
		t.Errorf("TVF join returned %d rows", rows.Len())
	}
}

func TestInsertSelectAndClusteredIndex(t *testing.T) {
	db := Open(256)
	mustExec(t, db, "CREATE TABLE src (objid bigint PRIMARY KEY, dec float)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO src VALUES (?, ?)", Int(int64(i)), Float(float64(i%90)-45))
	}
	mustExec(t, db, "CREATE TABLE zone (zoneid int, objid bigint, dec float)")
	// spZone shape: compute zoneid and insert.
	n := mustExec(t, db, "INSERT INTO zone SELECT CAST(FLOOR((dec + 90.0) / 0.00833333) AS INT), objid, dec FROM src")
	if n != 500 {
		t.Fatalf("INSERT SELECT moved %d rows", n)
	}
	mustExec(t, db, "CREATE CLUSTERED INDEX ix_zone ON zone(zoneid, objid)")

	// Scan order must follow the clustered key.
	rows := mustQuery(t, db, "SELECT zoneid FROM zone")
	prev := int64(-1 << 62)
	for rows.Next() {
		z := rows.Row()[0].I
		if z < prev {
			t.Fatal("rows not in clustered order after CREATE CLUSTERED INDEX")
		}
		prev = z
	}

	// Range predicate on the leading key column (uses pushdown).
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM zone WHERE zoneid BETWEEN 6000 AND 8000")
	rows.Next()
	var want int64
	all := mustQuery(t, db, "SELECT zoneid FROM zone")
	for all.Next() {
		if z := all.Row()[0].I; z >= 6000 && z <= 8000 {
			want++
		}
	}
	if rows.Row()[0].I != want {
		t.Errorf("range count = %v, want %d", rows.Row()[0], want)
	}
}

func TestRangePushdownMatchesFullScan(t *testing.T) {
	db := Open(256)
	mustExec(t, db, "CREATE TABLE t (k bigint PRIMARY KEY, v int)")
	for i := 0; i < 1000; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", Int(int64(i)), Int(int64(i*i%97)))
	}
	for _, cond := range []string{
		"k BETWEEN 100 AND 200",
		"k >= 990",
		"k < 10",
		"k = 500",
		"k > 100 AND k <= 110",
		"250 <= k AND k < 260",
	} {
		q := "SELECT COUNT(*) FROM t WHERE " + cond
		rows := mustQuery(t, db, q)
		rows.Next()
		got := rows.Row()[0].I
		// Oracle: evaluate via a full scan with the filter on a
		// non-key expression to defeat pushdown.
		q2 := "SELECT COUNT(*) FROM t WHERE (v >= 0 OR v < 0) AND (" + cond + ")"
		rows2 := mustQuery(t, db, q2)
		rows2.Next()
		if got != rows2.Row()[0].I {
			t.Errorf("pushdown mismatch for %q: %d vs %d", cond, got, rows2.Row()[0].I)
		}
	}
}

// TestSmallPoolDB runs a table several times larger than an 8-frame pool:
// loads and scans must evict, and every dirty page evicted is counted as a
// physical write.
func TestSmallPoolDB(t *testing.T) {
	db := Open(8)
	mustExec(t, db, "CREATE TABLE t (k bigint PRIMARY KEY, s text)")
	for i := 0; i < 2000; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", Int(int64(i)), String(strings.Repeat("x", 50)))
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	rows.Next()
	if rows.Row()[0].I != 2000 {
		t.Errorf("count = %v", rows.Row()[0])
	}
	// 2000 rows of ~60 B need more leaves than 8 frames hold.
	if s := db.Stats(); s.PhysicalWrites == 0 || s.PhysicalReads == 0 {
		t.Errorf("stats %+v: want physical writes and reads from an 8-frame pool", s)
	}
}

func TestExecScript(t *testing.T) {
	db := Open(64)
	err := db.ExecScript(`
		CREATE TABLE a (x int);
		INSERT INTO a VALUES (1);
		INSERT INTO a VALUES (2);
	`)
	if err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, "SELECT SUM(x) FROM a")
	rows.Next()
	if rows.Row()[0].I != 3 {
		t.Errorf("sum = %v", rows.Row()[0])
	}
	if err := db.ExecScript("CREATE TABLE b (x int); BOGUS;"); err == nil {
		t.Error("script with bad statement accepted")
	}
}

func TestErrorsOnUnknownObjects(t *testing.T) {
	db := Open(64)
	for _, sql := range []string{
		"SELECT * FROM missing",
		"INSERT INTO missing VALUES (1)",
		"UPDATE missing SET x = 1",
		"DELETE FROM missing",
		"TRUNCATE TABLE missing",
		"DROP TABLE missing",
		"SELECT * FROM fNoSuchTVF(1) x",
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%q succeeded, want error", sql)
		}
	}
	mustExec(t, db, "CREATE TABLE t (a int)")
	if _, err := db.Exec("CREATE TABLE t (a int)"); err == nil {
		t.Error("duplicate CREATE TABLE accepted")
	}
	if _, err := db.Query("SELECT nope FROM t"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := db.Query("SELECT a FROM t x JOIN t y ON x.a = y.a WHERE a = 1"); err == nil {
		t.Error("ambiguous column accepted")
	}
}

func TestNullSemantics(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE n (x int)")
	mustExec(t, db, "INSERT INTO n VALUES (1), (NULL), (3)")
	// NULL comparisons exclude rows.
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM n WHERE x > 0")
	rows.Next()
	if rows.Row()[0].I != 2 {
		t.Errorf("count = %v, want 2 (NULL row excluded)", rows.Row()[0])
	}
	// IS NULL finds them.
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM n WHERE x IS NULL")
	rows.Next()
	if rows.Row()[0].I != 1 {
		t.Errorf("IS NULL count = %v", rows.Row()[0])
	}
	// NULLs don't join.
	mustExec(t, db, "CREATE TABLE n2 (x int)")
	mustExec(t, db, "INSERT INTO n2 VALUES (NULL), (3)")
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM n a JOIN n2 b ON a.x = b.x")
	rows.Next()
	if rows.Row()[0].I != 1 {
		t.Errorf("join count = %v, want 1", rows.Row()[0])
	}
}

func TestOrderByVariants(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE o (a int, b text)")
	mustExec(t, db, "INSERT INTO o VALUES (3, 'c'), (1, 'a'), (2, 'b'), (NULL, 'n')")
	// NULLs first ascending.
	rows := mustQuery(t, db, "SELECT a FROM o ORDER BY a")
	rows.Next()
	if !rows.Row()[0].IsNull() {
		t.Error("NULL should sort first ascending")
	}
	// Order by alias.
	rows = mustQuery(t, db, "SELECT a * 10 AS big FROM o WHERE a IS NOT NULL ORDER BY big DESC")
	rows.Next()
	if rows.Row()[0].I != 30 {
		t.Errorf("alias order first = %v", rows.Row()[0])
	}
	// Order by ordinal.
	rows = mustQuery(t, db, "SELECT b FROM o ORDER BY 1 DESC")
	rows.Next()
	if rows.Row()[0].S != "n" {
		t.Errorf("ordinal order first = %v", rows.Row()[0])
	}
	// Order by expression not in the select list.
	rows = mustQuery(t, db, "SELECT b FROM o WHERE a IS NOT NULL ORDER BY a * -1")
	rows.Next()
	if rows.Row()[0].S != "c" {
		t.Errorf("expression order first = %v", rows.Row()[0])
	}
}

func TestGroupKeyIntFloatJoin(t *testing.T) {
	// Integral floats must hash-join and group with equal ints.
	db := Open(64)
	mustExec(t, db, "CREATE TABLE a (x int)")
	mustExec(t, db, "CREATE TABLE b (x float)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (1.0), (3.0)")
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x")
	rows.Next()
	if rows.Row()[0].I != 1 {
		t.Errorf("int/float hash join count = %v, want 1", rows.Row()[0])
	}
}

// TestBigintComparesExactly pins 64-bit identifiers (SDSS objIDs) on a
// non-key column, where no key encoding helps: 2^53 and 2^53+1 are one
// float64, and every comparing operator must still tell them apart.
func TestBigintComparesExactly(t *testing.T) {
	db := Open(64)
	mustExec(t, db, "CREATE TABLE ids (k bigint PRIMARY KEY, id bigint)")
	mustExec(t, db, "INSERT INTO ids VALUES (1, 9007199254740993), (2, 9007199254740992), (3, 9007199254740993)")
	count := func(sql string, args ...Value) int64 {
		t.Helper()
		rows := mustQuery(t, db, sql, args...)
		rows.Next()
		return rows.Row()[0].I
	}
	for _, c := range []struct {
		sql  string
		args []Value
		want int64
	}{
		{"SELECT COUNT(*) FROM ids WHERE id = 9007199254740992", nil, 1},
		{"SELECT COUNT(*) FROM ids WHERE id = ?", []Value{Int(1<<53 + 1)}, 2},
		{"SELECT COUNT(*) FROM ids WHERE 9007199254740992 <> id", nil, 2},
		{"SELECT COUNT(*) FROM ids WHERE id < 9007199254740993", nil, 1},
		{"SELECT COUNT(*) FROM ids WHERE id BETWEEN 9007199254740993 AND ?", []Value{Int(1<<53 + 1)}, 2},
		{"SELECT COUNT(*) FROM ids WHERE id NOT BETWEEN 9007199254740993 AND 9007199254740994", nil, 1},
		{"SELECT COUNT(*) FROM ids WHERE id + 0 = 9007199254740992", nil, 1}, // the generic path
	} {
		if got := count(c.sql, c.args...); got != c.want {
			t.Errorf("%s: COUNT %d, want %d", c.sql, got, c.want)
		}
	}
	rows := mustQuery(t, db, "SELECT k FROM ids ORDER BY id, k DESC")
	var order []int64
	for rows.Next() {
		order = append(order, rows.Row()[0].I)
	}
	if fmt.Sprint(order) != "[2 3 1]" {
		t.Errorf("ORDER BY id: keys %v, want [2 3 1]", order)
	}
	if n := mustQuery(t, db, "SELECT DISTINCT id FROM ids").Len(); n != 2 {
		t.Errorf("DISTINCT id: %d rows, want 2", n)
	}
	rows = mustQuery(t, db, "SELECT id, COUNT(*) FROM ids GROUP BY id ORDER BY id")
	var groups []string
	for rows.Next() {
		groups = append(groups, fmt.Sprintf("%d:%d", rows.Row()[0].I, rows.Row()[1].I))
	}
	if want := "[9007199254740992:1 9007199254740993:2]"; fmt.Sprint(groups) != want {
		t.Errorf("GROUP BY id: %v, want %s", groups, want)
	}
	rows = mustQuery(t, db, "SELECT MIN(id), MAX(id) FROM ids")
	rows.Next()
	if r := rows.Row(); r[0].I != 1<<53 || r[1].I != 1<<53+1 {
		t.Errorf("MIN/MAX(id) = %v, want 2^53, 2^53+1", r)
	}
}

func TestSelectIntoStyleWorkflow(t *testing.T) {
	// The paper's spImportGalaxy shape: filtered projection from a source
	// table into a working table, with computed error columns.
	db := Open(256)
	mustExec(t, db, `CREATE TABLE photoobj (objid bigint PRIMARY KEY, ra float, dec float,
		dered_g float, dered_r float, dered_i float)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, "INSERT INTO photoobj VALUES (?, ?, ?, ?, ?, ?)",
			Int(int64(i)), Float(190+float64(i)*0.05), Float(float64(i%10)),
			Float(19.0), Float(18.2), Float(17.9))
	}
	mustExec(t, db, `CREATE TABLE galaxy (objid bigint PRIMARY KEY, ra float, dec float,
		i real, gr real, ri real, sigmagr float, sigmari float)`)
	n := mustExec(t, db, `INSERT INTO galaxy
		SELECT objid, ra, dec,
		       dered_i,
		       dered_g - dered_r,
		       dered_r - dered_i,
		       CAST(2.089 * POWER(10.000, 0.228 * dered_i - 6.0) AS FLOAT),
		       CAST(4.266 * POWER(10.0000, 0.206 * dered_i - 6.0) AS FLOAT)
		FROM photoobj
		WHERE ra BETWEEN 190 AND 195 AND dec BETWEEN 0 AND 5`)
	if n == 0 {
		t.Fatal("import moved no rows")
	}
	rows := mustQuery(t, db, "SELECT MIN(gr), MAX(ri), MIN(sigmagr) FROM galaxy")
	rows.Next()
	gr, _ := rows.Row()[0].AsFloat()
	ri, _ := rows.Row()[1].AsFloat()
	sg, _ := rows.Row()[2].AsFloat()
	if math.Abs(gr-0.8) > 1e-9 || math.Abs(ri-0.3) > 1e-9 {
		t.Errorf("colour columns wrong: gr=%g ri=%g", gr, ri)
	}
	wantSg := 2.089 * math.Pow(10, 0.228*17.9-6)
	if math.Abs(sg-wantSg) > 1e-9 {
		t.Errorf("sigmagr = %g, want %g", sg, wantSg)
	}
}

func TestManyRowsStress(t *testing.T) {
	db := Open(512)
	mustExec(t, db, "CREATE TABLE s (k bigint PRIMARY KEY, v float)")
	tbl, _ := db.Table("s")
	for i := 0; i < 20000; i++ {
		if err := tbl.Insert([]Value{Int(int64(i)), Float(float64(i) * 1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	rows := mustQuery(t, db, "SELECT COUNT(*), MIN(v), MAX(v) FROM s WHERE k >= 10000")
	rows.Next()
	if rows.Row()[0].I != 10000 {
		t.Errorf("count = %v", rows.Row()[0])
	}
	if mn, _ := rows.Row()[1].AsFloat(); mn != 15000 {
		t.Errorf("min = %v", rows.Row()[1])
	}
}

func BenchmarkInsert(b *testing.B) {
	db := Open(1024)
	if _, err := db.Exec("CREATE TABLE bench (k bigint PRIMARY KEY, v float)"); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Table("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Insert([]Value{Int(int64(i)), Float(float64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	db := Open(1024)
	if _, err := db.Exec("CREATE TABLE bench (k bigint PRIMARY KEY, v float)"); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Table("bench")
	for i := 0; i < 50000; i++ {
		if err := tbl.Insert([]Value{Int(int64(i)), Float(float64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i % 40000)
		rows, err := db.Query("SELECT COUNT(*) FROM bench WHERE k BETWEEN ? AND ?", Int(lo), Int(lo+1000))
		if err != nil {
			b.Fatal(err)
		}
		rows.Next()
		if rows.Row()[0].I != 1001 {
			b.Fatalf("count = %v", rows.Row()[0])
		}
	}
}

func ExampleDB_Query() {
	db := Open(64)
	db.Exec("CREATE TABLE stars (name text, mag float)")
	db.Exec("INSERT INTO stars VALUES ('Vega', 0.03), ('Sirius', -1.46)")
	rows, _ := db.Query("SELECT name FROM stars ORDER BY mag")
	for rows.Next() {
		fmt.Println(rows.Row()[0].S)
	}
	// Output:
	// Sirius
	// Vega
}
