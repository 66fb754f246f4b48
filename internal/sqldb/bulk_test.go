package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// scanAll drains a table into value slices for comparison.
func scanAll(t testing.TB, tbl *Table) [][]Value {
	t.Helper()
	cur, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var out [][]Value
	for cur.Next() {
		out = append(out, append([]Value(nil), cur.Row()...))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func rowsEqual(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestBulkInsertMatchesInsert is the sqldb half of the equivalence
// guarantee: a table loaded in one batch, and one loaded in eight batches
// each merged into the rows before it, must both scan exactly as a sort
// of the rows by clustered key does (ties in load order) — across key
// shapes (unique PK, non-unique composite clustered key, rowid heap).
func TestBulkInsertMatchesInsert(t *testing.T) {
	cols := []Column{
		{Name: "zoneid", Type: TInt},
		{Name: "ra", Type: TFloat},
		{Name: "objid", Type: TInt},
	}
	rng := rand.New(rand.NewSource(3))
	var rows [][]Value
	for i := 0; i < 5000; i++ {
		rows = append(rows, []Value{
			Int(int64(rng.Intn(40))),
			Float(float64(rng.Intn(100000)) / 100),
			Int(int64(i)),
		})
	}
	cases := []struct {
		name string
		make func(db *DB, tname string) (*Table, error)
		less func(a, b []Value) bool // clustered-key order; nil = load order
	}{
		{"UniquePK", func(db *DB, tn string) (*Table, error) { return db.CreateTable(tn, cols, "objid") },
			func(a, b []Value) bool { return a[2].I < b[2].I }},
		{"Clustered", func(db *DB, tn string) (*Table, error) {
			return db.CreateTableClustered(tn, cols, []string{"zoneid", "ra"})
		}, func(a, b []Value) bool { return a[0].I < b[0].I || a[0].I == b[0].I && a[1].F < b[1].F }},
		{"Heap", func(db *DB, tn string) (*Table, error) { return db.CreateTable(tn, cols, "") }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := append([][]Value(nil), rows...)
			if tc.less != nil {
				sort.SliceStable(want, func(i, j int) bool { return tc.less(want[i], want[j]) })
			}
			db := Open(1024)
			bulk, err := tc.make(db, "bulk")
			if err != nil {
				t.Fatal(err)
			}
			batched, err := tc.make(db, "batched")
			if err != nil {
				t.Fatal(err)
			}
			if err := bulk.BulkInsert(rows); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(rows); i += 625 {
				if err := batched.BulkInsert(rows[i : i+625]); err != nil {
					t.Fatal(err)
				}
			}
			if !rowsEqual(scanAll(t, bulk), want) {
				t.Fatal("bulk-loaded scan differs from the sorted rows")
			}
			if !rowsEqual(scanAll(t, batched), want) {
				t.Fatal("batch-by-batch scan differs from the sorted rows")
			}
		})
	}
}

// TestBulkThenTrickleRowID is the regression test for mixed ingest:
// one-row INSERTs after a BulkInsert must continue from the correct max
// rowid, so no later row can collide with (and silently replace) a
// bulk-loaded one.
func TestBulkThenTrickleRowID(t *testing.T) {
	db := Open(256)
	cols := []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TFloat}}
	tbl, err := db.CreateTableClustered("t", cols, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	// All rows share clustered key 7: only the rowid suffix separates them,
	// so a rowid collision would overwrite a row and drop the count.
	var rows [][]Value
	for i := 0; i < 100; i++ {
		rows = append(rows, []Value{Int(7), Float(float64(i))})
	}
	if err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (7, %d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	got := scanAll(t, tbl)
	if len(got) != 150 {
		t.Fatalf("table holds %d rows after bulk+trickle, want 150 (rowid reuse?)", len(got))
	}
	// Scan order within the shared key is rowid order = ingest order.
	for i, r := range got {
		if v, _ := r[1].AsFloat(); v != float64(i) {
			t.Fatalf("row %d has v=%g, want %g: rowid sequencing broken across bulk/trickle boundary", i, v, float64(i))
		}
	}
}

// TestBulkInsertIdentityContinues checks that Identity auto-fill advances
// across BulkInsert and stays in step with a later one-row load.
func TestBulkInsertIdentityContinues(t *testing.T) {
	db := Open(256)
	cols := []Column{{Name: "id", Type: TInt, Identity: true}, {Name: "v", Type: TFloat}}
	tbl, err := db.CreateTable("t", cols, "id")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := 0; i < 40; i++ {
		rows = append(rows, []Value{Null(), Float(float64(i))})
	}
	if err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkInsert([][]Value{{Null(), Float(40)}}); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, tbl)
	if len(got) != 41 {
		t.Fatalf("got %d rows, want 41", len(got))
	}
	for i, r := range got {
		if id, _ := r[0].AsInt(); id != int64(i+1) {
			t.Fatalf("row %d has identity %d, want %d", i, id, i+1)
		}
	}
}

// TestBulkInsertIntoNonEmpty merges a batch into existing rows: union scan
// and counts must match a table loaded with every row in one batch.
func TestBulkInsertIntoNonEmpty(t *testing.T) {
	db := Open(512)
	cols := []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}}
	merged, err := db.CreateTable("merged", cols, "k")
	if err != nil {
		t.Fatal(err)
	}
	oneBatch, err := db.CreateTable("onebatch", cols, "k")
	if err != nil {
		t.Fatal(err)
	}
	mkRow := func(k int) []Value { return []Value{Int(int64(k)), String(fmt.Sprintf("v%d", k))} }
	var evens, odds, all [][]Value
	for k := 0; k < 2000; k += 2 {
		evens = append(evens, mkRow(k))
	}
	for k := 1999; k > 0; k -= 2 { // descending: exercises the sort
		odds = append(odds, mkRow(k))
	}
	all = append(append(all, evens...), odds...)
	// Seed one table with the even keys, then bulk-merge the odd keys in.
	if err := merged.BulkInsert(evens); err != nil {
		t.Fatal(err)
	}
	if err := merged.BulkInsert(odds); err != nil {
		t.Fatal(err)
	}
	if err := oneBatch.BulkInsert(all); err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != 2000 || oneBatch.NumRows() != 2000 {
		t.Fatalf("row counts: merged %d, one batch %d, want 2000", merged.NumRows(), oneBatch.NumRows())
	}
	if !rowsEqual(scanAll(t, merged), scanAll(t, oneBatch)) {
		t.Fatal("merged bulk scan differs from the one-batch scan")
	}
}

// TestBulkInsertDuplicatePK verifies uniqueness enforcement both within a
// batch and between a batch and existing rows — and that a failed batch
// leaves the table untouched.
func TestBulkInsertDuplicatePK(t *testing.T) {
	db := Open(256)
	cols := []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TFloat}}
	tbl, err := db.CreateTable("t", cols, "k")
	if err != nil {
		t.Fatal(err)
	}
	dup := [][]Value{
		{Int(1), Float(1)},
		{Int(2), Float(2)},
		{Int(1), Float(3)},
	}
	if err := tbl.BulkInsert(dup); err == nil {
		t.Fatal("in-batch duplicate primary key accepted")
	}
	if n := tbl.NumRows(); n != 0 {
		t.Fatalf("failed batch left %d rows behind", n)
	}
	if err := tbl.BulkInsert([][]Value{{Int(5), Float(5)}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkInsert([][]Value{{Int(5), Float(6)}}); err == nil {
		t.Fatal("duplicate primary key against existing rows accepted")
	}
	if n := tbl.NumRows(); n != 1 {
		t.Fatalf("table holds %d rows after rejected merge, want 1", n)
	}
	got := scanAll(t, tbl)
	if v, _ := got[0][1].AsFloat(); v != 5 {
		t.Fatalf("surviving row has v=%g, want 5 (rejected batch leaked)", v)
	}
}

// TestBulkInsertFailureRestoresCounters: a rejected batch must not burn
// identity (or rowid) values, so a corrected retry numbers rows as if the
// failure never happened.
func TestBulkInsertFailureRestoresCounters(t *testing.T) {
	db := Open(256)
	cols := []Column{{Name: "id", Type: TInt, Identity: true}, {Name: "v", Type: TFloat}}
	tbl, err := db.CreateTable("t", cols, "id")
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Value{
		{Int(7), Float(1)},
		{Null(), Float(2)}, // would take identity 1
		{Int(7), Float(3)}, // duplicate PK: batch rejected
	}
	if err := tbl.BulkInsert(bad); err == nil {
		t.Fatal("duplicate batch accepted")
	}
	if err := tbl.BulkInsert([][]Value{{Null(), Float(9)}}); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, tbl)
	if len(got) != 1 {
		t.Fatalf("got %d rows, want 1", len(got))
	}
	if id, _ := got[0][0].AsInt(); id != 1 {
		t.Fatalf("identity after failed batch = %d, want 1 (failed batch burned ids)", id)
	}
}

// TestReplaceAllAtomicOnError rewrites a table into a primary-key
// collision: the rewrite must fail without touching the existing rows
// (the UPDATE/DELETE rewrite path goes through ReplaceAll).
func TestReplaceAllAtomicOnError(t *testing.T) {
	db := Open(256)
	cols := []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TFloat}}
	tbl, err := db.CreateTable("t", cols, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkInsert([][]Value{{Int(1), Float(1)}, {Int(2), Float(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE t SET k = 1"); err == nil {
		t.Fatal("primary-key-colliding UPDATE accepted")
	}
	got := scanAll(t, tbl)
	if len(got) != 2 {
		t.Fatalf("failed rewrite left %d rows, want the original 2", len(got))
	}
	for i, want := range []int64{1, 2} {
		if k, _ := got[i][0].AsInt(); k != want {
			t.Fatalf("row %d has k=%d, want %d (failed rewrite mutated the table)", i, k, want)
		}
	}
	// A valid rewrite still works and restarts rowids.
	if _, err := db.Exec("UPDATE t SET v = 9 WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	got = scanAll(t, tbl)
	if v, _ := got[1][1].AsFloat(); v != 9 {
		t.Fatalf("valid rewrite lost its update: v=%g", v)
	}
}

func TestBulkInsertEmptyAndErrors(t *testing.T) {
	db := Open(256)
	cols := []Column{{Name: "k", Type: TInt}}
	tbl, err := db.CreateTable("t", cols, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkInsert(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := tbl.BulkInsert([][]Value{{Int(1), Int(2)}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := tbl.BulkInsert([][]Value{{String("not-an-int")}}); err == nil {
		t.Fatal("uncoercible value accepted")
	}
}

// TestRowAfterScanStopsIsNotChimera: once Next returns false at the range
// bound, the storage cursor's buffer holds the out-of-range row, so a late
// Row() call must not decode those bytes at the old row's offsets.
func TestRowAfterScanStopsIsNotChimera(t *testing.T) {
	db := Open(256)
	cols := []Column{{Name: "k", Type: TInt}, {Name: "s", Type: TString}}
	tbl, err := db.CreateTableClustered("t", cols, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkInsert([][]Value{{Int(1), String("in-range")}, {Int(2), String("out-of-range")}}); err != nil {
		t.Fatal(err)
	}
	cur, err := tbl.RangeScan(Int(1), Int(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cur.SetEagerColumns(1) // leave the string column undecoded
	if !cur.Next() {
		t.Fatal("first row missing")
	}
	if cur.Next() {
		t.Fatal("scan leaked past the range bound")
	}
	row := cur.Row()
	if err := cur.Err(); err != nil {
		t.Fatalf("Row after scan end errored: %v", err)
	}
	if row[1].S == "out-of-range" {
		t.Fatal("Row after scan end decoded the out-of-range record (chimera row)")
	}
}

// TestSortedRunBuilderMergesRuns drives the builder across its spill
// boundary so Emit takes the multi-run heap-merge path.
func TestSortedRunBuilderMergesRuns(t *testing.T) {
	b := NewSortedRunBuilder(0)
	// Values big enough that a few thousand entries span several runs.
	pad := make([]byte, 16<<10)
	rng := rand.New(rand.NewSource(9))
	keys := rng.Perm(3000)
	for _, k := range keys {
		key := []byte(fmt.Sprintf("%08d", k))
		b.Add(key, pad)
	}
	if b.Len() != len(keys) {
		t.Fatalf("Len() = %d, want %d", b.Len(), len(keys))
	}
	if len(b.runs) < 2 {
		t.Fatalf("expected multiple sealed runs, got %d (spill threshold not crossed)", len(b.runs))
	}
	var prev string
	n := 0
	err := b.Emit(func(key, value []byte) error {
		if n > 0 && string(key) <= prev {
			return fmt.Errorf("key %q out of order after %q", key, prev)
		}
		prev = string(key)
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("Emit yielded %d pairs, want %d", n, len(keys))
	}
}

// TestSortedRunBuilderSizeHintProperty drives the builder with random key
// and value widths, duplicate keys, pair counts from one to more than a
// sealed run, and every kind of size hint — none, exact, too small, too
// large, absurd. The hint is a reservation only: Emit must stream the
// stable key-sort of the input (equal keys in insertion order) whatever it
// says, and one reservation never exceeds a run.
func TestSortedRunBuilderSizeHintProperty(t *testing.T) {
	type pair struct {
		key, val []byte
	}
	rng := rand.New(rand.NewSource(15))
	gen := func(n, maxKey, maxVal int) []pair {
		ps := make([]pair, n)
		for i := range ps {
			// A small key space forces duplicates; the value carries the
			// insertion index so stability is observable.
			key := []byte(fmt.Sprintf("%0*d", 1+rng.Intn(maxKey), rng.Intn(1+n/2)))
			val := make([]byte, 4+rng.Intn(maxVal))
			binary.LittleEndian.PutUint32(val, uint32(i))
			ps[i] = pair{key, val}
		}
		return ps
	}
	cases := []struct {
		name           string
		n, maxKey, max int
	}{
		{"one", 1, 4, 8},
		{"small", 300, 6, 40},
		{"wide-spread", 4000, 12, 900},
		{"multi-run", 3000, 8, 12 << 10}, // ~18 MB: crosses sortedRunBytes
		{"in-order", 2000, 6, 40},        // arrives sorted: seal skips the sort
		{"in-order-multi-run", 3000, 8, 12 << 10},
	}
	for _, tc := range cases {
		ps := gen(tc.n, tc.maxKey, tc.max)
		want := append([]pair(nil), ps...)
		sort.SliceStable(want, func(a, b int) bool { return bytes.Compare(want[a].key, want[b].key) < 0 })
		if strings.HasPrefix(tc.name, "in-order") {
			copy(ps, want)
		}
		for _, hint := range []int{0, tc.n, tc.n / 3, 4 * tc.n, 1 << 40} {
			t.Run(fmt.Sprintf("%s/hint-%d", tc.name, hint), func(t *testing.T) {
				b := NewSortedRunBuilder(hint)
				for i, p := range ps {
					b.Add(p.key, p.val)
					if pairBytes := len(p.key) + len(p.val); i == 0 && cap(b.cur.slab) > sortedRunBytes+pairBytes {
						t.Fatalf("first reservation %d bytes exceeds a run", cap(b.cur.slab))
					}
				}
				if b.Len() != len(ps) {
					t.Fatalf("Len() = %d, want %d", b.Len(), len(ps))
				}
				i := 0
				err := b.Emit(func(key, value []byte) error {
					if i >= len(want) || !bytes.Equal(key, want[i].key) || !bytes.Equal(value, want[i].val) {
						return fmt.Errorf("pair %d out of order or unstable", i)
					}
					i++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if i != len(want) {
					t.Fatalf("Emit yielded %d pairs, want %d", i, len(want))
				}
				if strings.HasSuffix(tc.name, "multi-run") && len(b.runs) < 2 {
					t.Fatalf("expected several sealed runs, got %d", len(b.runs))
				}
			})
		}
	}
}

// TestBulkInsertAllocatesAboutThePayload pins the bulk-load memory rules
// from outside, on 50k fixed-width rows. In key order the load streams:
// nothing but loader scratch and the page inventory is allocated, well
// under 0.3x the encoded bytes. Shuffled, all but the row or two that
// happened to ascend go through one presized sorted run: at most 1.5x (the
// slab once, plus the entry table) — not the three-fold and more that
// growing the slab by append used to cost. Each table is loaded and
// truncated first, so the measured load reuses the store's freed pages and
// page memory stays out of the count.
func TestBulkInsertAllocatesAboutThePayload(t *testing.T) {
	const n = 50000
	cols := make([]Column, 10)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: TFloat}
	}
	for _, tc := range []struct {
		name  string
		key   []string // clustered on random floats = shuffled; rowid heap = ordered
		limit float64
	}{
		{"ordered", nil, 0.3},
		{"shuffled", []string{"c0"}, 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Open(0)
			tbl, err := db.CreateTableClustered("t", cols, tc.key)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			scratch := make([]Value, len(cols))
			rowAt := func(int) []Value {
				for i := range scratch {
					scratch[i] = Float(rng.Float64())
				}
				return scratch
			}
			payload := 0
			nv := *tbl.version.Load()
			if err := tbl.encodeRows(&nv, n, rowAt, func(key, data []byte) error {
				payload += len(key) + len(data)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			load := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := tbl.BulkInsertFunc(n, rowAt); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			load()
			if err := tbl.Truncate(); err != nil {
				t.Fatal(err)
			}
			got := load()
			if tbl.NumRows() != n {
				t.Fatalf("loaded %d rows, want %d", tbl.NumRows(), n)
			}
			x := float64(got) / float64(payload)
			if x > tc.limit {
				t.Errorf("BulkInsertFunc of %d rows allocated %d bytes for a %d-byte payload (%.2fx, limit %.1fx)",
					n, got, payload, x, tc.limit)
			} else {
				t.Logf("allocated %d bytes for a %d-byte payload (%.2fx)", got, payload, x)
			}
		})
	}
}
