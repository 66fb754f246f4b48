package storage

import (
	"fmt"
	"sync"
)

// Store is the raw page I/O layer under the buffer pool.
type Store interface {
	// ReadPage fills buf (PageSize bytes) with the page's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf as the page's contents.
	WritePage(id PageID, buf []byte) error
	// Allocate reserves a fresh page and returns its id (never 0).
	Allocate() (PageID, error)
	// Free returns a page to the store's free list; a later Allocate may
	// hand the id out again (zero-filled). The caller owns the proof that
	// nothing references the page — the Reclaimer defers Free until no
	// snapshot guard can still reach it. Freeing a page twice, or freeing
	// one that is still reachable, corrupts whichever tree is handed the
	// id next.
	Free(id PageID) error
}

// MemStore is the in-memory Store every database runs on.
type MemStore struct {
	mu    sync.Mutex
	pages [][]byte
	free  []PageID
}

// NewMemStore returns an empty in-memory store with page 0 allocated.
func NewMemStore() *MemStore {
	return &MemStore{pages: [][]byte{make([]byte, PageSize)}}
}

// ReadPage implements Store.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, s.pages[id])
	return nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(s.pages[id], buf)
	return nil
}

// Allocate implements Store. Freed pages are reused (zero-filled) before
// the store grows.
func (s *MemStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		clear(s.pages[id])
		return id, nil
	}
	s.pages = append(s.pages, make([]byte, PageSize))
	return PageID(len(s.pages) - 1), nil
}

// Free implements Store.
func (s *MemStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 || int(id) >= len(s.pages) {
		return fmt.Errorf("storage: free of invalid page %d", id)
	}
	s.free = append(s.free, id)
	return nil
}
