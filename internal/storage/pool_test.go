package storage

import (
	"sync"
	"testing"
)

func TestPoolHitMissAccounting(t *testing.T) {
	pool := NewPool(NewMemStore(), PoolOptions{Frames: 8})
	h, err := pool.New()
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID
	h.Buf[100] = 0xAB
	h.Release(true)

	// First Get is a hit (page still resident after New).
	h, err = pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buf[100] != 0xAB {
		t.Error("page content lost")
	}
	h.Release(false)

	s := pool.Stats()
	if s.LogicalReads != 1 {
		t.Errorf("LogicalReads = %d, want 1 (New is not a read)", s.LogicalReads)
	}
	if s.PhysicalReads != 0 {
		t.Errorf("PhysicalReads = %d, want 0 (resident)", s.PhysicalReads)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	store := NewMemStore()
	pool := NewPool(store, PoolOptions{Frames: 8})
	var first PageID
	// Allocate enough pages to cycle the 8-frame pool several times.
	for i := 0; i < 40; i++ {
		h, err := pool.New()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = h.ID
		}
		h.Buf[0] = byte(i + 1)
		h.Release(true)
	}
	// Page 'first' must have been evicted and persisted; re-reading it is
	// a physical read that returns the written content.
	before := pool.Stats()
	h, err := pool.Get(first)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buf[0] != 1 {
		t.Errorf("evicted page content = %d, want 1", h.Buf[0])
	}
	h.Release(false)
	after := pool.Stats()
	if after.PhysicalReads != before.PhysicalReads+1 {
		t.Errorf("expected one physical read, got %d", after.PhysicalReads-before.PhysicalReads)
	}
	if after.PhysicalWrites == 0 {
		t.Error("expected eviction write-backs")
	}
}

func TestPoolExhaustion(t *testing.T) {
	pool := NewPool(NewMemStore(), PoolOptions{Frames: 8})
	var handles []*Handle
	for i := 0; i < 8; i++ {
		h, err := pool.New()
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if _, err := pool.New(); err == nil {
		t.Error("expected pool exhaustion with all frames pinned")
	}
	handles[0].Release(false)
	if _, err := pool.New(); err != nil {
		t.Errorf("pool should recover after a release: %v", err)
	}
}

func TestPoolStatsResetAndDiff(t *testing.T) {
	pool := NewPool(NewMemStore(), PoolOptions{Frames: 8})
	h, _ := pool.New()
	h.Release(true)
	pool.ResetStats()
	if s := pool.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
	a := Stats{LogicalReads: 10, PhysicalReads: 2, PhysicalWrites: 1}
	b := Stats{LogicalReads: 4, PhysicalReads: 1, PhysicalWrites: 1}
	d := a.Sub(b)
	if d.LogicalReads != 6 || d.PhysicalReads != 1 || d.PhysicalWrites != 0 {
		t.Errorf("Sub = %+v", d)
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.LogicalReads != 14 || acc.Total() != 14+2 {
		t.Errorf("Add/Total = %+v (%d)", acc, acc.Total())
	}
}

func TestPoolConcurrentAccess(t *testing.T) {
	pool := NewPool(NewMemStore(), PoolOptions{Frames: 32})
	var ids []PageID
	for i := 0; i < 64; i++ {
		h, err := pool.New()
		if err != nil {
			t.Fatal(err)
		}
		h.Buf[0] = byte(i)
		ids = append(ids, h.ID)
		h.Release(true)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				id := ids[(w*7+round)%len(ids)]
				h, err := pool.Get(id)
				if err != nil {
					t.Errorf("Get(%d): %v", id, err)
					return
				}
				h.Release(false)
			}
		}(w)
	}
	wg.Wait()
}

func TestStoreOutOfRangeAccess(t *testing.T) {
	store := NewMemStore()
	buf := make([]byte, PageSize)
	if err := store.ReadPage(999, buf); err == nil {
		t.Error("read of unallocated page accepted")
	}
	if err := store.WritePage(999, buf); err == nil {
		t.Error("write of unallocated page accepted")
	}
	if err := store.Free(999); err == nil {
		t.Error("free of unallocated page accepted")
	}
}
