package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bulkKV generates the i-th test pair: an order-preserving int64 key and a
// value whose length varies a little so page boundaries move around.
func bulkKV(i int) (key, value []byte) {
	key = AppendInt64(nil, int64(i))
	value = make([]byte, 24+i%7)
	for j := range value {
		value[j] = byte(i + j)
	}
	return key, value
}

func bulkLoadN(t testing.TB, pool *Pool, n int) *BTree {
	t.Helper()
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = bulkKV(i)
	}
	return loadSorted(t, pool, keys, vals)
}

// checkTreeInvariants walks the whole tree and verifies the B+tree
// invariants a bottom-up load must preserve:
//
//   - every leaf is at the same depth,
//   - keys are strictly ascending within and across pages,
//   - internal separators equal the min key of their child's subtree,
//   - every page except the rightmost spine is at least half full, and
//     every internal page off it has a separator (a page on it may hold
//     only its leftmost child: the load ended just after that child
//     overflowed the page before it),
//   - every slot of every page is in bounds (validateSlotted),
//   - the record count matches n.
func checkTreeInvariants(t *testing.T, tree *BTree, n int) {
	t.Helper()
	var (
		leafDepth = -1
		seen      int
		prevKey   []byte
	)
	// usable is the record area available to a page (slotted header aside).
	usable := PageSize - nodeReserve - 4
	var walk func(id PageID, depth int, rightmost bool, lower []byte) (minKey []byte)
	walk = func(id PageID, depth int, rightmost bool, lower []byte) []byte {
		h, err := tree.pool.Get(id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		defer h.Release(false)
		p := AsSlotted(h.Buf, nodeReserve)
		if err := validateSlotted(p); err != nil {
			t.Fatalf("page %d at depth %d: %v", id, depth, err)
		}
		if !rightmost && usable-p.FreeSpace() < usable/2 {
			t.Errorf("page %d at depth %d is under half full (%d of %d bytes) off the rightmost spine",
				id, depth, usable-p.FreeSpace(), usable)
		}
		if h.Buf[0] == nodeLeaf {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Errorf("leaf %d at depth %d, want %d", id, depth, leafDepth)
			}
			var min []byte
			for i := 0; i < p.NumSlots(); i++ {
				k, _ := splitLeafRecord(p.Record(i))
				if prevKey != nil && bytes.Compare(k, prevKey) <= 0 {
					t.Errorf("leaf %d slot %d: key not strictly ascending", id, i)
				}
				prevKey = append(prevKey[:0], k...)
				if i == 0 {
					min = append([]byte(nil), k...)
				}
				seen++
			}
			if lower != nil && min != nil && !bytes.Equal(min, lower) {
				t.Errorf("leaf %d min key differs from parent separator", id)
			}
			return min
		}
		// Internal node: leftmost child inherits the lower bound, each
		// record's child subtree must start exactly at the separator.
		nslots := p.NumSlots()
		if nslots == 0 && !rightmost {
			t.Errorf("internal page %d has no separators", id)
		}
		min := walk(getChild(h.Buf), depth+1, rightmost && nslots == 0, lower)
		for i := 0; i < nslots; i++ {
			k, child := splitInternalRecord(p.Record(i))
			sep := append([]byte(nil), k...)
			walk(child, depth+1, rightmost && i == nslots-1, sep)
		}
		return min
	}
	walk(tree.Root(), 0, true, nil)
	if seen != n {
		t.Errorf("tree holds %d records, want %d", seen, n)
	}
}

// leafCapacity computes how many bulkKV-sized records fit in one leaf, to
// aim the size sweep straight at the page boundary.
func leafCapacity() int {
	usable := PageSize - nodeReserve - 4
	used, n := 0, 0
	for {
		k, v := bulkKV(n)
		cost := 2 + len(k) + len(v) + slotEntrySize
		if used+cost > usable {
			return n
		}
		used += cost
		n++
	}
}

func TestBulkLoaderInvariants(t *testing.T) {
	capacity := leafCapacity()
	sizes := []int{0, 1, capacity - 1, capacity, capacity + 1, 10000}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			pool := NewPool(NewMemStore(), PoolOptions{Frames: 512})
			tree := bulkLoadN(t, pool, n)
			checkTreeInvariants(t, tree, n)
		})
	}
}

// TestBulkLoaderInvariantsFuzz is the fuzz-style sweep: random sizes and
// random (sorted) key gaps, every tree fully invariant-checked.
func TestBulkLoaderInvariantsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20040801))
	for round := 0; round < 20; round++ {
		n := rng.Intn(4000)
		pool := NewPool(NewMemStore(), PoolOptions{Frames: 512})
		b, err := NewBulkLoader(pool)
		if err != nil {
			t.Fatal(err)
		}
		key := int64(0)
		for i := 0; i < n; i++ {
			key += 1 + int64(rng.Intn(1000))
			v := make([]byte, rng.Intn(120))
			if err := b.Add(AppendInt64(nil, key), v); err != nil {
				t.Fatalf("round %d Add(%d): %v", round, i, err)
			}
		}
		tree, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		checkTreeInvariants(t, tree, n)
	}
}

// TestBulkLoadMatchesInsert is the storage half of the equivalence
// guarantee: the cursor stream of a bulk-loaded tree is exactly the
// sorted pairs that went in.
func TestBulkLoadMatchesInsert(t *testing.T) {
	const n = 5000
	pool := NewPool(NewMemStore(), PoolOptions{Frames: 1024})
	tree := bulkLoadN(t, pool, n)
	requireStream(t, tree, n, func(i int) ([]byte, []byte) { return bulkKV(i) })
}

// requireStream checks that a full scan of tree yields exactly the n
// pairs at(0) ... at(n-1), in that order.
func requireStream(t *testing.T, tree *BTree, n int, at func(i int) (key, value []byte)) {
	t.Helper()
	c, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if !c.Valid() {
			t.Fatalf("cursor exhausted at record %d of %d", i, n)
		}
		k, v := at(i)
		if !bytes.Equal(c.Key(), k) || !bytes.Equal(c.Value(), v) {
			t.Fatalf("record %d differs from the loaded pair", i)
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Valid() {
		t.Fatalf("cursor has records past the %d loaded", n)
	}
}

func TestBulkLoaderErrors(t *testing.T) {
	pool := NewPool(NewMemStore(), PoolOptions{Frames: 64})
	b, err := NewBulkLoader(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte{}, nil); err == nil {
		t.Error("empty key accepted")
	}
	if err := b.Add([]byte("b"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("b"), []byte("2")); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := b.Add([]byte("a"), []byte("3")); err == nil {
		t.Error("descending key accepted")
	}
	if err := b.Add([]byte("c"), make([]byte, MaxRecordSize)); err == nil {
		t.Error("oversized record accepted")
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("d"), nil); err == nil {
		t.Error("Add after Finish accepted")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("double Finish accepted")
	}

	// Abort releases pins so the pool can evict the loader's pages.
	b2, err := NewBulkLoader(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Add([]byte("x"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	b2.Abort()
	b2.Abort() // idempotent
}

// FuzzBulkLoadTree loads fuzzer-shaped sorted runs through a pool of at
// most 16 frames and reads them back against the sorted slice they came
// from. data is cut into 4-byte pair templates (key gap, key suffix
// length, value length low and high byte) that repeat until n pairs are
// built: keys are an ascending 8-byte counter plus a suffix of up to
// ~2 KiB, so internal pages may hold only a few separators and the tree
// grows deep; values fill the rest of MaxRecordSize.
func FuzzBulkLoadTree(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte{0, 0, 24, 0}, uint16(1), uint8(6))
	f.Add([]byte{0, 0, 24, 0, 3, 1, 0, 1}, uint16(4000), uint8(0))
	f.Add([]byte{1, 0, 0xff, 0xff}, uint16(600), uint8(3))             // max-size values
	f.Add([]byte{0, 0xff, 0, 0, 9, 200, 7, 0}, uint16(2000), uint8(1)) // max-size keys
	f.Fuzz(func(t *testing.T, data []byte, n uint16, frames uint8) {
		count := int(n) % 4097
		if len(data) < 4 {
			count = 0
		}
		keys, vals := make([][]byte, count), make([][]byte, count)
		prefix := int64(0)
		for i := range keys {
			tpl := data[4*(i%(len(data)/4)):]
			prefix += 1 + int64(tpl[0])
			key := AppendInt64(nil, prefix)
			suffix := min(int(tpl[1])*8, MaxRecordSize-2-len(key))
			for j := 0; j < suffix; j++ {
				key = append(key, byte(i+j))
			}
			vlen := (int(tpl[2]) | int(tpl[3])<<8) % (MaxRecordSize - 2 - len(key) + 1)
			val := make([]byte, vlen)
			for j := range val {
				val[j] = byte(i ^ j)
			}
			keys[i], vals[i] = key, val
		}
		// The deepest tree 4,096 records can make has six internal levels
		// (three records a page at least); the load pins one page a level
		// plus two leaves, so ten frames always suffice.
		pool := NewPool(NewMemStore(), PoolOptions{Frames: 10 + int(frames)%7})
		tree := loadSorted(t, pool, keys, vals)
		checkTreeInvariants(t, tree, count)
		requireStream(t, tree, count, func(i int) ([]byte, []byte) { return keys[i], vals[i] })

		for i, k := range keys {
			v, ok, err := lookup(tree, k)
			if err != nil || !ok || !bytes.Equal(v, vals[i]) {
				t.Fatalf("lookup(key %d) = %d bytes, %v, %v", i, len(v), ok, err)
			}
			// k+0x00 sorts after k and before the next key's larger prefix.
			if _, ok, err := lookup(tree, append(k[:len(k):len(k)], 0)); ok || err != nil {
				t.Fatalf("lookup(key %d + 0x00) of an absent key = %v, %v", i, ok, err)
			}
		}
		for _, k := range [][]byte{nil, AppendInt64(nil, 0), AppendInt64(nil, math.MaxInt64)} {
			if _, ok, err := lookup(tree, k); ok || err != nil {
				t.Fatalf("lookup(%x) of an absent key = %v, %v", k, ok, err)
			}
		}

		// Seek lands on the first key >= the probe, for keys, gaps between
		// keys and random byte strings.
		rng := rand.New(rand.NewSource(int64(count)<<8 | int64(len(data))))
		for p := 0; p < 64; p++ {
			var probe []byte
			switch i := rng.Intn(count + 1); {
			case i == count || rng.Intn(3) == 0:
				probe = make([]byte, rng.Intn(10))
				rng.Read(probe)
			case rng.Intn(2) == 0:
				probe = keys[i]
			default:
				probe = append(keys[i][:len(keys[i]):len(keys[i])], 0)
			}
			want := sort.Search(count, func(j int) bool { return bytes.Compare(keys[j], probe) >= 0 })
			c, err := tree.Seek(probe)
			if err != nil {
				t.Fatal(err)
			}
			if want == count {
				if c.Valid() {
					t.Fatalf("Seek(%x) past the last key found a record", probe)
				}
			} else if !c.Valid() || !bytes.Equal(c.Key(), keys[want]) || !bytes.Equal(c.Value(), vals[want]) {
				t.Fatalf("Seek(%x) did not land on record %d", probe, want)
			}
			c.Close()
		}
	})
}
