package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// BulkLoader builds a B+tree bottom-up from strictly ascending (key, value)
// pairs: leaves are written packed left-to-right and internal levels stack
// on top as their children finish, so the load never descends the tree and
// never splits a page. This is the classic sorted-run load of a bulk
// CREATE CLUSTERED INDEX — the shape of every ingest in the paper's
// workload (spImportGalaxy, spZone, the k-correction table) — and it costs
// one page write per page instead of one root-to-leaf descent per record.
//
// Pages are packed full; only the rightmost spine of each level may be
// underfull. BulkLoader is the only way to fill a tree: callers that
// cannot produce sorted input go through sqldb's SortedRunBuilder.
type BulkLoader struct {
	pool    *Pool
	leaf    *Handle
	leafP   SlottedPage
	lastKey []byte
	rec     []byte // leaf-record scratch, reused across Add calls
	levels  []*loadLevel
	pages   []PageID // every page this load allocated, in allocation order
	count   int
	done    bool
}

// loadLevel is one internal level under construction: the currently open
// (rightmost) page of that level. Finished pages are already referenced by
// the level above, so only the open page needs tracking.
type loadLevel struct {
	h *Handle
	p SlottedPage
}

// NewBulkLoader starts a load into a fresh tree on pool. The loader holds
// one pinned page per level until Finish or Abort.
func NewBulkLoader(pool *Pool) (*BulkLoader, error) {
	h, err := pool.New()
	if err != nil {
		return nil, err
	}
	h.Buf[0] = nodeLeaf
	putChild(h.Buf, InvalidPageID)
	b := &BulkLoader{pool: pool, leaf: h, pages: []PageID{h.ID}}
	b.leafP = InitSlotted(h.Buf, nodeReserve)
	return b, nil
}

// Count returns the number of pairs added so far.
func (b *BulkLoader) Count() int { return b.count }

// Pages returns every page id the load allocated — after Finish, the
// complete tree; after Abort, the abandoned pages. Because a bulk-loaded
// tree is exactly its loader's allocations, the slice is a full page
// inventory of the tree: retiring it deallocates the tree without a walk.
// The loader keeps no reference after Finish/Abort; the caller owns it.
func (b *BulkLoader) Pages() []PageID { return b.pages }

// Add appends one pair. Keys must arrive strictly ascending; a duplicate or
// out-of-order key is an error (the tree's keys are unique, and a bottom-up
// load cannot go back to an already-finished page).
func (b *BulkLoader) Add(key, value []byte) error {
	if b.done {
		return fmt.Errorf("storage: Add after Finish/Abort")
	}
	if len(key) == 0 {
		return fmt.Errorf("storage: empty key")
	}
	if len(key)+len(value)+2 > MaxRecordSize {
		return fmt.Errorf("storage: record for key of %d bytes exceeds max record size %d", len(key), MaxRecordSize)
	}
	if b.count > 0 && bytes.Compare(key, b.lastKey) <= 0 {
		return fmt.Errorf("storage: bulk load keys not strictly ascending")
	}
	// Build the record in reused scratch; SlottedPage.Insert copies it into
	// the page, so no per-pair allocation survives the call.
	b.rec = append(b.rec[:0], 0, 0)
	binary.LittleEndian.PutUint16(b.rec, uint16(len(key)))
	b.rec = append(b.rec, key...)
	rec := append(b.rec, value...)
	b.rec = rec
	if _, ok := b.leafP.Insert(rec); !ok {
		// Current leaf is full: open its right sibling, link it, and
		// promote the sibling's min key into the level above.
		next, err := b.pool.New()
		if err != nil {
			return err
		}
		b.pages = append(b.pages, next.ID)
		next.Buf[0] = nodeLeaf
		putChild(next.Buf, InvalidPageID)
		nextP := InitSlotted(next.Buf, nodeReserve)
		putChild(b.leaf.Buf, next.ID) // left.next = right
		finished := b.leaf.ID
		b.leaf.Release(true)
		b.leaf, b.leafP = next, nextP
		if _, ok := b.leafP.Insert(rec); !ok {
			return fmt.Errorf("storage: record does not fit in empty leaf")
		}
		if err := b.promote(0, finished, key, next.ID); err != nil {
			return err
		}
	}
	b.lastKey = append(b.lastKey[:0], key...)
	b.count++
	return nil
}

// promote attaches child — a freshly opened page at level-1 whose subtree
// min key is sepKey — to the internal level above it. leftSibling is the
// page that just finished at level-1; it becomes the leftmost child if this
// promotion has to open a brand-new top level.
func (b *BulkLoader) promote(level int, leftSibling PageID, sepKey []byte, child PageID) error {
	if level == len(b.levels) {
		h, err := b.pool.New()
		if err != nil {
			return err
		}
		b.pages = append(b.pages, h.ID)
		h.Buf[0] = nodeInternal
		putChild(h.Buf, leftSibling)
		p := InitSlotted(h.Buf, nodeReserve)
		if _, ok := p.Insert(internalRecord(sepKey, child)); !ok {
			return fmt.Errorf("storage: separator does not fit in empty internal page")
		}
		b.levels = append(b.levels, &loadLevel{h: h, p: p})
		return nil
	}
	lv := b.levels[level]
	rec := internalRecord(sepKey, child)
	if _, ok := lv.p.Insert(rec); ok {
		return nil
	}
	// This internal page is full too: open its right sibling with the
	// overflowing child as leftmost, and promote the sibling one level up.
	// The sibling's subtree min key is exactly sepKey.
	next, err := b.pool.New()
	if err != nil {
		return err
	}
	b.pages = append(b.pages, next.ID)
	next.Buf[0] = nodeInternal
	putChild(next.Buf, child)
	nextP := InitSlotted(next.Buf, nodeReserve)
	finished := lv.h.ID
	lv.h.Release(true)
	lv.h, lv.p = next, nextP
	return b.promote(level+1, finished, sepKey, next.ID)
}

// Finish closes all open pages and returns the loaded tree. Every page
// except the rightmost spine is packed full; the root is the single page of
// the top level (the lone leaf for loads that fit in one page, including
// the empty load).
func (b *BulkLoader) Finish() (*BTree, error) {
	if b.done {
		return nil, fmt.Errorf("storage: Finish after Finish/Abort")
	}
	b.done = true
	root := b.leaf.ID
	b.leaf.Release(true)
	b.leaf = nil
	for _, lv := range b.levels {
		root = lv.h.ID
		lv.h.Release(true)
		lv.h = nil
	}
	b.levels = nil
	return &BTree{pool: b.pool, root: root}, nil
}

// Abort releases the loader's pins without producing a tree. The pages
// written so far are abandoned; since the tree was never published, the
// caller may Dealloc Pages() immediately. Safe to call after Finish,
// where it is a no-op.
func (b *BulkLoader) Abort() {
	if b.done {
		return
	}
	b.done = true
	if b.leaf != nil {
		b.leaf.Release(true)
		b.leaf = nil
	}
	for _, lv := range b.levels {
		lv.h.Release(true)
		lv.h = nil
	}
	b.levels = nil
}
