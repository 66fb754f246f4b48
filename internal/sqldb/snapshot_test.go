package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// This file is the concurrency harness for snapshot isolation: a
// property test interleaving every writer path with concurrent readers,
// a columnar-projection pin, DDL racing queries, and a drop-while-
// iterating reclamation check. All of it runs under -race in CI
// (`go test -race -run 'Concurrent|Snapshot'`).

// tableState is one published (row count, order-independent checksum)
// pair. The checksum is SUM(k*131 + v), computable both by the writer's
// model and by a reader's plain SQL.
type tableState struct{ count, sum int64 }

// stateSet records every state the table has ever been published in (the
// writer adds the predicted state BEFORE applying the write, so the set
// over-approximates; a torn read can never be a member).
type stateSet struct {
	mu sync.Mutex
	m  map[tableState]bool
}

func (s *stateSet) add(st tableState)      { s.mu.Lock(); s.m[st] = true; s.mu.Unlock() }
func (s *stateSet) has(st tableState) bool { s.mu.Lock(); defer s.mu.Unlock(); return s.m[st] }
func modelState(m map[int64]int64) tableState {
	st := tableState{count: int64(len(m))}
	for k, v := range m {
		st.sum += k*131 + v
	}
	return st
}

// TestSnapshotPropertyConcurrentHistories is the tentpole's property
// test: a single writer applies 1000 randomly interleaved operations —
// BulkInsert, one-row BulkInsert, ReplaceAll, UPDATE, DELETE — against one
// table while four readers continuously run SELECT (and the occasional
// EXPLAIN ANALYZE) against it. Every read must observe exactly one
// published version: its (COUNT, SUM) pair matches some write-ordered
// state of the history, never a mix of two.
func TestSnapshotPropertyConcurrentHistories(t *testing.T) {
	const ops = 1000
	db := Open(8192)
	if _, err := db.Exec("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)"); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("t")

	legal := &stateSet{m: map[tableState]bool{{0, 0}: true}}
	var fail atomic.Pointer[string]
	report := func(msg string) { fail.CompareAndSwap(nil, &msg) }
	var done atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if i%64 == 63 {
					if _, err := db.Explain("EXPLAIN ANALYZE SELECT COUNT(*) FROM t"); err != nil {
						report(fmt.Sprintf("reader %d explain: %v", r, err))
						return
					}
					continue
				}
				var st tableState
				if i%2 == 0 {
					rows, err := db.Query("SELECT COUNT(*), SUM(k*131 + v) FROM t")
					if err != nil {
						report(fmt.Sprintf("reader %d query: %v", r, err))
						return
					}
					rows.Next()
					st = tableState{count: rows.Row()[0].I}
					if !rows.Row()[1].IsNull() {
						st.sum = rows.Row()[1].I
					}
				} else {
					// The streaming path: the iterator owns its snapshot,
					// so the whole drain reads one version.
					it, err := db.QueryIter("SELECT k, v FROM t")
					if err != nil {
						report(fmt.Sprintf("reader %d iter: %v", r, err))
						return
					}
					for it.Next() {
						row := it.Row()
						st.count++
						st.sum += row[0].I*131 + row[1].I
					}
					err = it.Err()
					it.Close()
					if err != nil {
						report(fmt.Sprintf("reader %d iter drain: %v", r, err))
						return
					}
				}
				if !legal.has(st) {
					report(fmt.Sprintf("reader %d torn read: count=%d sum=%d matches no published state", r, st.count, st.sum))
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(7))
	model := make(map[int64]int64)
	nextKey := int64(0)
	freshRows := func(n int) [][]Value {
		rows := make([][]Value, n)
		for i := range rows {
			k, v := nextKey, rng.Int63n(1000)
			nextKey++
			model[k] = v
			rows[i] = []Value{Int(k), Int(v)}
		}
		return rows
	}
	anyKey := func() int64 {
		for k := range model {
			return k
		}
		return -1
	}
	for i := 0; i < ops && fail.Load() == nil; i++ {
		op := rng.Intn(5)
		if len(model) > 1500 {
			op = 4 // keep the table (and each rebuild) bounded
		}
		switch op {
		case 0: // bulk load
			rows := freshRows(1 + rng.Intn(64))
			legal.add(modelState(model))
			if err := tab.BulkInsert(rows); err != nil {
				t.Fatalf("op %d BulkInsert: %v", i, err)
			}
		case 1: // one-row load: a whole-table rebuild
			rows := freshRows(1)
			legal.add(modelState(model))
			if err := tab.BulkInsert(rows); err != nil {
				t.Fatalf("op %d one-row BulkInsert: %v", i, err)
			}
		case 2: // replace everything
			for k := range model {
				delete(model, k)
			}
			rows := freshRows(rng.Intn(100))
			legal.add(modelState(model))
			if err := tab.ReplaceAll(rows); err != nil {
				t.Fatalf("op %d ReplaceAll: %v", i, err)
			}
		case 3: // UPDATE through SQL
			bound, nv := anyKey(), rng.Int63n(1000)
			for k := range model {
				if k <= bound {
					model[k] = nv
				}
			}
			legal.add(modelState(model))
			if _, err := db.Exec("UPDATE t SET v = ? WHERE k <= ?", Int(nv), Int(bound)); err != nil {
				t.Fatalf("op %d UPDATE: %v", i, err)
			}
		case 4: // DELETE through SQL
			bound := anyKey()
			for k := range model {
				if k <= bound {
					delete(model, k)
				}
			}
			legal.add(modelState(model))
			if _, err := db.Exec("DELETE FROM t WHERE k <= ?", Int(bound)); err != nil {
				t.Fatalf("op %d DELETE: %v", i, err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(*msg)
	}

	// The history is over: the table must match the model exactly, and
	// once the last reader guard is gone every superseded version's pages
	// must have been reclaimed.
	rows, err := db.Query("SELECT COUNT(*), SUM(k*131 + v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	want := modelState(model)
	got := tableState{count: rows.Row()[0].I}
	if !rows.Row()[1].IsNull() {
		got.sum = rows.Row()[1].I
	}
	if got != want {
		t.Fatalf("final state = %+v, want %+v", got, want)
	}
	if n := db.Reclaimer().Pending(); n != 0 {
		t.Errorf("%d pages still pending reclamation with no live snapshots", n)
	}
}

// TestSnapshotColumnstoreConversion pins conversion under readers: the
// segments ride the table version, so a reader's scan — ColumnarScan over
// a converted version or SeqScan over the row version before it — always
// covers exactly its snapshot's rows, never a mix of two generations,
// while writers replace the contents and convert them underneath it. Once
// the readers finish every superseded page is reclaimed.
func TestSnapshotColumnstoreConversion(t *testing.T) {
	const n = 400
	db := Open(8192)
	zt, err := db.CreateTableClustered("z",
		[]Column{{Name: "zoneid", Type: TInt}, {Name: "ra", Type: TFloat}, {Name: "val", Type: TInt}},
		[]string{"zoneid", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	load := func(gen int64) {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{Int(int64(i / 10)), Float(float64(i % 10)), Int(gen)}
		}
		if err := zt.ReplaceAll(rows); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if _, err := db.Exec("CREATE CLUSTERED COLUMNSTORE INDEX k ON z (zoneid, ra)"); err != nil {
			t.Fatalf("gen %d conversion: %v", gen, err)
		}
	}
	load(0)
	if plan, err := db.Explain("SELECT SUM(val) FROM z"); err != nil || !strings.Contains(plan, "ColumnarScan") {
		t.Fatalf("segments not used (err=%v):\n%s", err, plan)
	}

	// Reader 1: point-in-time iterators. Every drained row must carry the
	// same generation — a snapshot can never mix two.
	var fail atomic.Pointer[string]
	report := func(msg string) { fail.CompareAndSwap(nil, &msg) }
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				it, err := db.QueryIter("SELECT val FROM z")
				if err != nil {
					report(fmt.Sprintf("reader %d: %v", r, err))
					return
				}
				gen, count := int64(-1), 0
				for it.Next() {
					v := it.Row()[0].I
					if gen == -1 {
						gen = v
					} else if v != gen {
						report(fmt.Sprintf("reader %d: generations %d and %d in one snapshot", r, gen, v))
						it.Close()
						return
					}
					count++
				}
				err = it.Err()
				it.Close()
				if err != nil {
					report(fmt.Sprintf("reader %d drain: %v", r, err))
					return
				}
				if count != n {
					report(fmt.Sprintf("reader %d: %d rows, want %d", r, count, n))
					return
				}
			}
		}(r)
	}
	// Reader 2: aggregates, which take the ColumnarScan path whenever the
	// snapshot's version is column-primary.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			rows, err := db.Query("SELECT COUNT(*), SUM(val) FROM z")
			if err != nil {
				report(fmt.Sprintf("agg reader: %v", err))
				return
			}
			rows.Next()
			count, sum := rows.Row()[0].I, rows.Row()[1].I
			if count != n || sum%int64(n) != 0 {
				report(fmt.Sprintf("agg reader: count=%d sum=%d is no single generation", count, sum))
				return
			}
		}
	}()

	for gen := int64(1); gen <= 30; gen++ {
		load(gen)
	}
	done.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if n := db.Reclaimer().Pending(); n != 0 {
		t.Errorf("%d pages still pending reclamation with no reader live", n)
	}
}

// TestSnapshotDDLConcurrent races CREATE, DROP, and RENAME against
// in-flight queries: a query either resolves a table (and then sees its
// full, untorn contents) or fails cleanly with unknown-table — never a
// partial catalog or freed pages.
func TestSnapshotDDLConcurrent(t *testing.T) {
	const rounds = 200
	db := Open(8192)
	if _, err := db.Exec("CREATE TABLE stable (k bigint PRIMARY KEY, v bigint)"); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("stable")
	rows := make([][]Value, 100)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Int(int64(i))}
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}

	var fail atomic.Pointer[string]
	report := func(msg string) { fail.CompareAndSwap(nil, &msg) }
	var done atomic.Bool
	var churn, readers sync.WaitGroup

	// Churner 1: create-and-drop throwaway tables.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("tmp%d", i%8)
			tt, err := db.CreateTable(name, []Column{{Name: "x", Type: TInt}}, "x")
			if err != nil {
				report(fmt.Sprintf("create %s: %v", name, err))
				return
			}
			if err := tt.BulkInsert([][]Value{{Int(int64(i))}}); err != nil {
				report(fmt.Sprintf("insert %s: %v", name, err))
				return
			}
			if err := db.DropTable(name, false); err != nil {
				report(fmt.Sprintf("drop %s: %v", name, err))
				return
			}
		}
	}()
	// Churner 2: rename the stable table away and back.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; i < rounds; i++ {
			if err := db.RenameTable("stable", "stable2"); err != nil {
				report(fmt.Sprintf("rename away: %v", err))
				return
			}
			if err := db.RenameTable("stable2", "stable"); err != nil {
				report(fmt.Sprintf("rename back: %v", err))
				return
			}
		}
	}()
	// Readers: the table is either absent (clean error) or whole.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for !done.Load() {
				rows, err := db.Query("SELECT COUNT(*), SUM(v) FROM stable")
				if err != nil {
					if !strings.Contains(err.Error(), "unknown table") {
						report(fmt.Sprintf("reader %d: %v", r, err))
						return
					}
					continue
				}
				rows.Next()
				if c, s := rows.Row()[0].I, rows.Row()[1].I; c != 100 || s != 4950 {
					report(fmt.Sprintf("reader %d: count=%d sum=%d, want 100/4950", r, c, s))
					return
				}
				// A snapshot's catalog is immutable: every listed name
				// must resolve within that same snapshot.
				snap := db.Snapshot()
				for _, name := range snap.TableNames() {
					if _, ok := snap.View(name); !ok {
						report(fmt.Sprintf("reader %d: %q listed but unresolvable in one snapshot", r, name))
						snap.Close()
						return
					}
				}
				snap.Close()
			}
		}(r)
	}

	// Readers run for as long as the churn does.
	churn.Wait()
	done.Store(true)
	readers.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(*msg)
	}
	for _, name := range db.TableNames() {
		if strings.HasPrefix(name, "tmp") {
			t.Errorf("throwaway table %q survived", name)
		}
	}
	if n := db.Reclaimer().Pending(); n != 0 {
		t.Errorf("%d pages still pending reclamation after DDL churn", n)
	}
}

// TestSnapshotDropWhileIterating pins deferred reclamation end to end: an
// iterator opened before DROP TABLE keeps reading the dropped table's
// pages; they are only deallocated once the iterator closes.
func TestSnapshotDropWhileIterating(t *testing.T) {
	db := Open(4096)
	if _, err := db.Exec("CREATE TABLE victim (k bigint PRIMARY KEY, v bigint)"); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("victim")
	const n = 5000
	if err := tab.BulkInsertFunc(n, func(i int) []Value {
		return []Value{Int(int64(i)), Int(int64(i) * 3)}
	}); err != nil {
		t.Fatal(err)
	}

	it, err := db.QueryIter("SELECT k, v FROM victim")
	if err != nil {
		t.Fatal(err)
	}
	// Read a prefix, then drop the table out from under the iterator.
	for i := 0; i < 10; i++ {
		if !it.Next() {
			t.Fatalf("premature end at row %d: %v", i, it.Err())
		}
	}
	if err := db.DropTable("victim", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("victim"); ok {
		t.Fatal("victim still in catalog after drop")
	}
	if db.Reclaimer().Pending() == 0 {
		t.Fatal("drop retired no pages while an iterator was live")
	}

	// The iterator's snapshot keeps the dropped pages alive: the drain
	// must deliver every remaining row intact.
	count := 10
	for it.Next() {
		row := it.Row()
		if row[1].I != row[0].I*3 {
			t.Fatalf("row %d torn after drop: %v", count, row)
		}
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("drain after drop: %v", err)
	}
	it.Close()
	if count != n {
		t.Fatalf("iterator saw %d rows, want %d", count, n)
	}
	if got := db.Reclaimer().Pending(); got != 0 {
		t.Fatalf("%d pages still pending after the last guard released", got)
	}
}

// TestSnapshotResolvesRenamedOverTable pins the window between taking a
// snapshot and its first touch of a table: a rename over the table in
// between (CasJobs' SELECT ... INTO swap) must leave the snapshot reading
// the rows its catalog listed, not the empty version the replaced table
// publishes on retirement. A drop behaves the same.
func TestSnapshotResolvesRenamedOverTable(t *testing.T) {
	db := Open(256)
	load := func(name string, gen int64) {
		t.Helper()
		mustExec(t, db, "CREATE TABLE "+name+" (k bigint PRIMARY KEY, gen bigint)")
		tab, _ := db.Table(name)
		if err := tab.BulkInsertFunc(300, func(i int) []Value { return []Value{Int(int64(i)), Int(gen)} }); err != nil {
			t.Fatal(err)
		}
	}
	load("hot", 1)
	for _, drop := range []bool{false, true} {
		snap := db.Snapshot()
		load("stage", 2)
		if drop {
			mustExec(t, db, "DROP TABLE hot")
		}
		if err := db.RenameTable("stage", "hot"); err != nil {
			t.Fatal(err)
		}
		tv, ok := snap.View("hot")
		if !ok {
			t.Fatal("hot missing from the snapshot's catalog")
		}
		cur, err := tv.Scan()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next() {
			if g := cur.Row()[1].I; g != 1 {
				t.Fatalf("drop=%v: snapshot read generation %d, want 1", drop, g)
			}
			n++
		}
		cur.Close()
		snap.Close()
		if n != 300 {
			t.Fatalf("drop=%v: snapshot read %d rows of the replaced table, want 300", drop, n)
		}
		// The next generation replaces this one.
		mustExec(t, db, "UPDATE hot SET gen = 1")
	}
	if got := db.Reclaimer().Pending(); got != 0 {
		t.Fatalf("%d pages still pending after every snapshot closed", got)
	}
}
