package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// loadSorted bulk-loads keys[i] -> values[i] (keys strictly ascending)
// into a fresh tree on pool.
func loadSorted(t testing.TB, pool *Pool, keys, values [][]byte) *BTree {
	t.Helper()
	b, err := NewBulkLoader(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := b.Add(k, values[i]); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func newTestPool(frames int) *Pool {
	return NewPool(NewMemStore(), PoolOptions{Frames: frames})
}

func TestBTreeBasic(t *testing.T) {
	tr := loadSorted(t, newTestPool(16), [][]byte{[]byte("k1")}, [][]byte{[]byte("v1")})
	v, ok, err := tr.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("nope")); ok {
		t.Error("found a missing key")
	}

	// The empty tree answers every read with nothing.
	empty, err := NewBTree(newTestPool(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := empty.Get([]byte("k1")); ok || err != nil {
		t.Errorf("empty tree Get = %v, %v", ok, err)
	}
	c, err := empty.First()
	if err != nil {
		t.Fatal(err)
	}
	if c.Valid() {
		t.Error("cursor over the empty tree is positioned on a record")
	}
	c.Close()
}

// TestBTreeRejectsBadRecords pins MaxRecordSize's edge: a record of
// exactly the bound loads and reads back, one byte more is refused.
func TestBTreeRejectsBadRecords(t *testing.T) {
	b, err := NewBulkLoader(newTestPool(16))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	key := []byte("k")
	atLimit := make([]byte, MaxRecordSize-2-len(key))
	if err := b.Add(key, atLimit); err != nil {
		t.Fatalf("record of exactly MaxRecordSize refused: %v", err)
	}
	if err := b.Add([]byte("l"), append(atLimit, 0)); err == nil {
		t.Error("record one byte over MaxRecordSize accepted")
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tree.Get(key); err != nil || !ok || len(v) != len(atLimit) {
		t.Errorf("Get of the max-size record = %d bytes, %v, %v", len(v), ok, err)
	}
}

func TestBTreeManyKeysOrderedScan(t *testing.T) {
	const n = 20000
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i] = AppendInt64(nil, int64(i))
		vals[i] = []byte(fmt.Sprintf("value-%d", i))
	}
	tr := loadSorted(t, newTestPool(64), keys, vals)
	// Full scan must return all keys in order.
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if !c.Valid() {
			t.Fatalf("cursor exhausted at %d of %d", i, n)
		}
		k, _, err := DecodeInt64(c.Key())
		if err != nil {
			t.Fatal(err)
		}
		if k != int64(i) {
			t.Fatalf("scan position %d has key %d", i, k)
		}
		if want := fmt.Sprintf("value-%d", i); string(c.Value()) != want {
			t.Fatalf("key %d value %q, want %q", i, c.Value(), want)
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Valid() {
		t.Error("cursor has extra records past n")
	}
}

func TestBTreeSeek(t *testing.T) {
	var keys, vals [][]byte
	for i := 0; i < 1000; i += 2 { // even keys only
		keys = append(keys, AppendInt64(nil, int64(i)))
		vals = append(vals, []byte{1})
	}
	tr := loadSorted(t, newTestPool(64), keys, vals)
	for i := 0; i < 1000; i++ {
		c, err := tr.Seek(AppendInt64(nil, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(i)
		if i%2 == 1 {
			want = int64(i + 1)
		}
		if want >= 1000 {
			if c.Valid() {
				t.Fatalf("Seek(%d) should be exhausted", i)
			}
		} else {
			k, _, _ := DecodeInt64(c.Key())
			if k != want {
				t.Fatalf("Seek(%d) landed on %d, want %d", i, k, want)
			}
		}
		c.Close()
	}
}

// TestBTreeOracle builds a tree from a random map through a tiny pool
// that must evict while loading and reading, then checks point queries
// for present and absent keys and the ordered scan against the map.
func TestBTreeOracle(t *testing.T) {
	pool := newTestPool(8)
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 30000; op++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(5000))
		if rng.Intn(3) == 2 {
			delete(oracle, k)
		} else {
			oracle[k] = fmt.Sprintf("val-%d", op)
		}
	}
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bkeys, bvals := make([][]byte, len(keys)), make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i], bvals[i] = []byte(k), []byte(oracle[k])
	}
	tr := loadSorted(t, pool, bkeys, bvals)

	// Point queries, present and absent.
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		want, present := oracle[k]
		got, ok, err := tr.Get([]byte(k))
		if err != nil || ok != present || string(got) != want {
			t.Fatalf("Get(%q) = %q, %v, %v; want %q, %v", k, got, ok, err, want, present)
		}
	}
	for _, k := range []string{"", "a", "key-", "key-05000", "key-00000x", "zzz"} {
		if _, ok, err := tr.Get([]byte(k)); ok || err != nil {
			t.Fatalf("Get(%q) of an absent key = %v, %v", k, ok, err)
		}
	}
	// Ordered scan equals sorted oracle.
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, k := range keys {
		if !c.Valid() {
			t.Fatalf("cursor exhausted before %q", k)
		}
		if string(c.Key()) != k || string(c.Value()) != oracle[k] {
			t.Fatalf("scan got %q=%q, want %q=%q", c.Key(), c.Value(), k, oracle[k])
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Valid() {
		t.Errorf("scan has extra key %q", c.Key())
	}
	// Eviction must have happened with only 8 frames.
	if s := pool.Stats(); s.PhysicalWrites == 0 || s.PhysicalReads == 0 {
		t.Errorf("stats %+v: want physical writes and reads from an 8-frame pool", s)
	}
}

func TestBTreeCompositeKeyOrdering(t *testing.T) {
	// (zoneID int64, ra float64) composite keys must scan in (zone, ra)
	// order — this is the clustered order spZone builds. The load sorts
	// the encoded keys bytewise; the scan must agree with the numeric
	// order.
	type zr struct {
		zone int64
		ra   float64
	}
	var want []zr
	var keys [][]byte
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		e := zr{zone: int64(rng.Intn(20)), ra: float64(rng.Intn(100000)) / 100}
		key := AppendInt64(nil, e.zone)
		key = AppendFloat64(key, e.ra)
		key = AppendInt64(key, int64(i)) // objid tiebreak
		keys = append(keys, key)
		want = append(want, e)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	sort.Slice(want, func(i, j int) bool {
		if want[i].zone != want[j].zone {
			return want[i].zone < want[j].zone
		}
		return want[i].ra < want[j].ra
	})
	tr := loadSorted(t, newTestPool(32), keys, make([][]byte, len(keys)))
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	i := 0
	for ; c.Valid(); i++ {
		zone, rest, _ := DecodeInt64(c.Key())
		ra, _, _ := DecodeFloat64(rest)
		if zone != want[i].zone || ra != want[i].ra {
			t.Fatalf("position %d: (%d, %g), want (%d, %g)", i, zone, ra, want[i].zone, want[i].ra)
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if i != len(want) {
		t.Errorf("scan read %d records, want %d", i, len(want))
	}
}

// TestBTreeLargeValuesForceSplits loads values of 1,500 bytes, five to a
// leaf, so the tree needs many leaves and an internal level above them.
func TestBTreeLargeValuesForceSplits(t *testing.T) {
	const n = 200
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i] = AppendInt64(nil, int64(i))
		vals[i] = bytes.Repeat([]byte{byte(i)}, 1500)
	}
	tr := loadSorted(t, newTestPool(32), keys, vals)
	checkTreeInvariants(t, tr, n)
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(keys[i])
		if err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("Get(%d): ok=%v len=%d err=%v", i, ok, len(v), err)
		}
	}
}

// TestBTreeConcurrentReads reads one tree from several goroutines at once
// through a pool too small to hold it: a built tree takes no lock, so
// Get, Seek and full scans rely only on the pool's pinning.
func TestBTreeConcurrentReads(t *testing.T) {
	const n = 3000
	pool := newTestPool(12)
	tree := bulkLoadN(t, pool, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 7 {
				k, v := bulkKV(i)
				got, ok, err := tree.Get(k)
				if err != nil || !ok || !bytes.Equal(got, v) {
					t.Errorf("Get(%d) = %v, %v", i, ok, err)
					return
				}
			}
			c, err := tree.Seek(AppendInt64(nil, int64(w*100)))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := w * 100; c.Valid(); i++ {
				if k, _ := bulkKV(i); !bytes.Equal(c.Key(), k) {
					t.Errorf("scan from %d: record %d out of order", w*100, i)
					return
				}
				if err := c.Next(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
