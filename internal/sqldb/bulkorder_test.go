package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/storage"
)

// The bulk path streams the ascending prefix of a load and sort-merges the
// rest. Its oracle is the path it replaced — encode everything into one
// sorted run, build the tree from that — plus the same rows loaded in two
// batches, the second merged into the first: whatever order the rows
// arrive in and wherever they are cut, the three must agree.

// liveStore counts pages allocated and not yet freed, so a test can assert
// a failed load gives every page back.
type liveStore struct {
	storage.Store
	live int
}

func (s *liveStore) Allocate() (storage.PageID, error) {
	id, err := s.Store.Allocate()
	if err == nil {
		s.live++
	}
	return id, err
}

func (s *liveStore) Free(id storage.PageID) error {
	err := s.Store.Free(id)
	if err == nil {
		s.live--
	}
	return err
}

func openLive(frames int) (*DB, *liveStore) {
	st := &liveStore{Store: storage.NewMemStore()}
	pool := storage.NewPool(st, PoolConfig{Frames: frames}.options())
	db := &DB{pool: pool, rec: storage.NewReclaimer(pool)}
	db.cat.Store(newCatalog())
	return db, st
}

// orderShape is one table layout the property runs over; gen draws a row
// from two random words (PRIMARY KEY shapes must map distinct a to distinct
// keys).
type orderShape struct {
	name   string
	create func(db *DB, name string) (*Table, error)
	gen    func(a, b uint32) []Value
}

var orderShapes = []orderShape{
	{ // fixed-width unique key, identity column outside the key
		"pk-int",
		func(db *DB, n string) (*Table, error) {
			return db.CreateTable(n, []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TFloat}, {Name: "id", Type: TInt, Identity: true}}, "k")
		},
		func(a, b uint32) []Value { return []Value{Int(int64(a) - 1<<31), Float(float64(b)), Null()} },
	},
	{ // variable-width unique key, varint payload
		"pk-string",
		func(db *DB, n string) (*Table, error) {
			return db.CreateTable(n, []Column{{Name: "s", Type: TString}, {Name: "n", Type: TInt}}, "s")
		},
		func(a, b uint32) []Value {
			return []Value{String(fmt.Sprintf("%016x/%d", uint64(a)*2654435761, a)[15-a%9:]), Int(int64(b) << (b % 30))}
		},
	},
	{ // composite key with few distinct values: the rowid suffix orders ties
		"clustered",
		func(db *DB, n string) (*Table, error) {
			return db.CreateTableClustered(n, []Column{{Name: "z", Type: TInt}, {Name: "ra", Type: TFloat}, {Name: "id", Type: TInt, Identity: true}}, []string{"z", "ra"})
		},
		func(a, b uint32) []Value { return []Value{Int(int64(a % 7)), Float(float64(b % 5)), Null()} },
	},
	{ // variable-width key under a rowid suffix, NULLs in the key
		"clustered-string",
		func(db *DB, n string) (*Table, error) {
			return db.CreateTableClustered(n, []Column{{Name: "s", Type: TString}, {Name: "n", Type: TInt}}, []string{"s"})
		},
		func(a, b uint32) []Value {
			if a%11 == 0 {
				return []Value{Null(), Int(int64(b))}
			}
			return []Value{String(fmt.Sprint(a % 40)), Int(int64(b))}
		},
	},
	{ // rowid heap: always in order
		"heap",
		func(db *DB, n string) (*Table, error) {
			return db.CreateTable(n, []Column{{Name: "v", Type: TFloat}, {Name: "id", Type: TInt, Identity: true}}, "")
		},
		func(a, b uint32) []Value { return []Value{Float(float64(a) / float64(b+1)), Null()} },
	},
}

// genRows draws n rows with distinct first words (so PRIMARY KEY shapes
// stay unique) and sorts the first k by clustered key.
func genRows(t testing.TB, sh orderShape, rng *rand.Rand, n, k int) [][]Value {
	seen := make(map[uint32]bool, n)
	rows := make([][]Value, 0, n)
	for len(rows) < n {
		a := rng.Uint32()
		if seen[a] {
			continue
		}
		seen[a] = true
		rows = append(rows, sh.gen(a, rng.Uint32()))
	}
	sortPrefix(t, sh, rows, k)
	return rows
}

// sortPrefix stably sorts rows[:k] by the shape's encoded clustered key
// (rowid suffix held at 0, so ties keep their order).
func sortPrefix(t testing.TB, sh orderShape, rows [][]Value, k int) {
	tbl, err := sh.create(Open(16), "k")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, k)
	order := make([]int, k)
	for i := range keys {
		if keys[i], err = tbl.View().appendKey(nil, rows[i], 0); err != nil {
			t.Fatal(err)
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bytes.Compare(keys[order[a]], keys[order[b]]) < 0 })
	sorted := make([][]Value, k)
	for i, o := range order {
		sorted[i] = rows[o]
	}
	copy(rows, sorted)
}

// treeBytes walks a tree's leaves into one length-prefixed byte string.
func treeBytes(t testing.TB, tree *storage.BTree) []byte {
	cur, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var out []byte
	for cur.Valid() {
		out = binary.AppendUvarint(out, uint64(len(cur.Key())))
		out = append(out, cur.Key()...)
		out = binary.AppendUvarint(out, uint64(len(cur.Value())))
		out = append(out, cur.Value()...)
		if err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkBulkOrder loads rows three ways into fresh tables of one shape —
// BulkInsert, sort-everything, and BulkInsert(rows[:split]) followed by
// BulkInsert(rows[split:]) — and requires BulkInsert to agree with the
// sort-everything oracle on stored bytes, page count, row count and the
// next rowid and identity, and the two-batch load to agree with BulkInsert
// on all of them. If the oracle rejects the rows (a duplicate PRIMARY
// KEY), BulkInsert must too, and so must exactly one of the two batches;
// a rejected load publishes nothing and gives every page back.
func checkBulkOrder(t testing.TB, sh orderShape, rows [][]Value, split int) {
	t.Helper()
	db, st := openLive(64)
	got, err := sh.create(db, "got")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sh.create(db, "ref")
	if err != nil {
		t.Fatal(err)
	}
	rowAt := func(i int) []Value { return rows[i] }

	// Sort-everything oracle: what mergedVersion did before it streamed.
	rv := ref.version.Load()
	nv := *rv
	b := NewSortedRunBuilder(len(rows))
	if err := ref.encodeRows(&nv, len(rows), rowAt, b.add); err != nil {
		t.Fatal(err)
	}
	wantTree, wantPages, wantErr := ref.buildTree(rv, b, rv.unique)

	// load runs one BulkInsert and, when it fails, checks that it published
	// nothing and gave back every page it took.
	load := func(tbl *Table, batch [][]Value) error {
		t.Helper()
		before, start := tbl.version.Load(), st.live
		err := tbl.BulkInsert(batch)
		if err != nil && (tbl.version.Load() != before || st.live != start) {
			t.Fatalf("failed BulkInsert published a version or kept %d pages", st.live-start)
		}
		return err
	}

	before, start := got.version.Load(), st.live
	err = load(got, rows)
	if wantErr != nil {
		if err == nil {
			t.Fatalf("BulkInsert accepted rows the sort-everything load rejects (%v)", wantErr)
		}
	} else if err != nil {
		t.Fatalf("BulkInsert: %v", err)
	}
	var gv *tableVersion
	if err == nil {
		gv = got.version.Load()
		if gv.rows != int64(len(rows)) || gv.nextRowID != nv.nextRowID || gv.nextIdentity != nv.nextIdentity {
			t.Fatalf("rows/rowid/identity = %d/%d/%d, oracle %d/%d/%d",
				gv.rows, gv.nextRowID, gv.nextIdentity, len(rows), nv.nextRowID, nv.nextIdentity)
		}
		if len(gv.treePages) != len(wantPages) {
			t.Fatalf("tree has %d pages, sort-everything builds %d", len(gv.treePages), len(wantPages))
		}
		if !bytes.Equal(treeBytes(t, gv.tree), treeBytes(t, wantTree)) {
			t.Fatal("stored (key, row) bytes differ from the sort-everything load")
		}
		// The new tree replaced the old one and nothing else stayed
		// allocated: a fallback's streamed prefix went back to the store.
		if grew, want := st.live-start, len(gv.treePages)-len(before.treePages); grew != want {
			t.Fatalf("the load left %d more pages allocated, its tree accounts for %d", grew, want)
		}
	}

	cut, err := sh.create(db, "cut")
	if err != nil {
		t.Fatal(err)
	}
	err1 := load(cut, rows[:split])
	var err2 error
	if err1 == nil {
		err2 = load(cut, rows[split:])
	}
	if wantErr != nil {
		if err1 == nil && err2 == nil {
			t.Fatalf("two-batch load at %d accepted rows the one-batch load rejects (%v)", split, wantErr)
		}
		return
	}
	if err1 != nil || err2 != nil {
		t.Fatalf("two-batch load at %d: %v, %v", split, err1, err2)
	}
	cv := cut.version.Load()
	if cv.rows != gv.rows || cv.nextRowID != gv.nextRowID || cv.nextIdentity != gv.nextIdentity {
		t.Fatalf("two-batch rows/rowid/identity = %d/%d/%d, one batch %d/%d/%d",
			cv.rows, cv.nextRowID, cv.nextIdentity, gv.rows, gv.nextRowID, gv.nextIdentity)
	}
	if len(cv.treePages) != len(gv.treePages) {
		t.Fatalf("two-batch tree has %d pages, one batch builds %d", len(cv.treePages), len(gv.treePages))
	}
	if !bytes.Equal(treeBytes(t, cv.tree), treeBytes(t, gv.tree)) {
		t.Fatalf("two-batch load at %d stores other (key, row) bytes than one batch", split)
	}
}

// TestBulkInsertStreamsOrderedPrefix: for every table shape and every
// length of ordered prefix — none, everything, and the boundary cases
// between — the streamed-then-merged load equals the oracles; a duplicate
// PRIMARY KEY on either side of the stream/fallback boundary, and a page
// allocation fault in mid-stream or under a one-row INSERT, fail the
// write cleanly.
func TestBulkInsertStreamsOrderedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sh := range orderShapes {
		for _, n := range []int{1, 7, 2500} {
			for _, k := range []int{0, 1, 2, n / 2, n - 1, n} {
				if k > n {
					continue
				}
				t.Run(fmt.Sprintf("%s/n%d/k%d", sh.name, n, k), func(t *testing.T) {
					checkBulkOrder(t, sh, genRows(t, sh, rng, n, k), rng.Intn(n+1))
				})
			}
		}
	}

	pk := orderShapes[0]
	const n, k = 2500, 1250
	dupAt := func(dst, src int) func(rows [][]Value) {
		return func(rows [][]Value) { rows[dst] = append([]Value(nil), rows[src]...) }
	}
	for _, tc := range []struct {
		name string
		dup  func(rows [][]Value)
	}{
		{"dup-in-stream", dupAt(k/2, k/2-1)}, // adjacent equal keys inside the ordered prefix
		{"dup-at-boundary", dupAt(k, 0)},     // the first diverted row repeats a streamed key
		{"dup-after", dupAt(n-1, k+1)},       // both copies in the sorted remainder
		{"dup-across", dupAt(n-1, k-1)},      // one copy streamed, one sorted
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := genRows(t, pk, rng, n, k)
			rows[k] = pk.gen(0, 0) // the smallest key: row k is the inversion
			tc.dup(rows)
			db, st := openLive(64)
			tbl, err := pk.create(db, "t")
			if err != nil {
				t.Fatal(err)
			}
			before, start := tbl.version.Load(), st.live
			if err := tbl.BulkInsert(rows); err == nil {
				t.Fatal("duplicate primary key accepted")
			}
			if tbl.version.Load() != before || st.live != start {
				t.Fatalf("rejected load published a version or kept %d pages", st.live-start)
			}
			checkBulkOrder(t, pk, rows, k) // and the oracles reject it too
		})
	}

	for _, tc := range []struct {
		name     string
		k, armAt int
	}{
		{"alloc-fault-streaming", n, n / 2}, // the stream's next leaf fails to open
		{"alloc-fault-merging", k, n - 1},   // the fallback's loader fails to open
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			rows := genRows(t, pk, rng, n, tc.k)
			db, st := openLive(64)
			tbl, err := pk.create(db, "t")
			if err != nil {
				t.Fatal(err)
			}
			db.Pool().SetFaultHooks(&storage.FaultHooks{Alloc: faultinject.Hook("sqldb/bulk-alloc")})
			before, start := tbl.version.Load(), st.live
			err = tbl.BulkInsertFunc(n, func(i int) []Value {
				if i == tc.armAt {
					faultinject.Enable("sqldb/bulk-alloc", faultinject.Failpoint{MaxHits: 1})
				}
				return rows[i]
			})
			if !faultinject.IsTransient(err) {
				t.Fatalf("load returned %v, want the injected fault", err)
			}
			if tbl.version.Load() != before || st.live != start {
				t.Fatalf("faulted load published a version or kept %d pages", st.live-start)
			}
			if err := tbl.BulkInsert(rows); err != nil || tbl.NumRows() != n {
				t.Fatalf("retry after the fault: %v (%d rows)", err, tbl.NumRows())
			}
		})
	}

	// A one-row INSERT is a bulk load too: into a non-empty table it builds
	// a whole new tree, so a failed page allocation fails the statement.
	t.Run("alloc-fault-one-row-insert", func(t *testing.T) {
		defer faultinject.Reset()
		db, st := openLive(64)
		tbl, err := pk.create(db, "t")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.BulkInsert(genRows(t, pk, rng, 100, 0)); err != nil {
			t.Fatal(err)
		}
		db.Pool().SetFaultHooks(&storage.FaultHooks{Alloc: faultinject.Hook("sqldb/bulk-alloc")})
		faultinject.Enable("sqldb/bulk-alloc", faultinject.Failpoint{MaxHits: 1})
		before, start := tbl.version.Load(), st.live
		const insert = "INSERT INTO t (k, v) VALUES (1099511627776, 1.5)" // above every generated key
		if _, err := db.Exec(insert); !faultinject.IsTransient(err) {
			t.Fatalf("INSERT returned %v, want the injected fault", err)
		}
		if tbl.version.Load() != before || st.live != start {
			t.Fatalf("faulted INSERT published a version or kept %d pages", st.live-start)
		}
		if _, err := db.Exec(insert); err != nil || tbl.NumRows() != 101 {
			t.Fatalf("retry after the fault: %v (%d rows)", err, tbl.NumRows())
		}
	})
}

// FuzzBulkInsertOrder feeds the same differential oracles rows the fuzzer
// arranges: data is read as 8-byte words, one row each, so the engine
// mutates order, duplicates and prefix length directly, and split (taken
// modulo the row count plus one) cuts the two-batch load.
func FuzzBulkInsertOrder(f *testing.F) {
	word := func(a, b uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, a), b)
	}
	var asc, desc, mixed, dup []byte
	for i := uint32(0); i < 40; i++ {
		asc = append(asc, word(1<<31+i, i)...)
		desc = append(desc, word(1<<31+40-i, i)...)
		mixed = append(mixed, word(1<<31+(i*17)%40+i/20, i)...) // ordered run, then shuffled
		dup = append(dup, word(1<<31+i%39, i)...)               // the last key repeats the first
	}
	for shape := range orderShapes {
		for i, seed := range [][]byte{nil, asc[:8], asc, desc, mixed, dup} {
			f.Add(uint8(shape), uint16(i*7), seed)
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, split uint16, data []byte) {
		sh := orderShapes[int(shape)%len(orderShapes)]
		if len(data) > 8*600 {
			data = data[:8*600]
		}
		rows := make([][]Value, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			rows = append(rows, sh.gen(binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:])))
		}
		checkBulkOrder(t, sh, rows, int(split)%(len(rows)+1))
	})
}
