package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// BTree is a B+tree over a buffer pool: the engine's clustered index.
// Keys are unique, order-preserving byte strings (see keys.go); Insert
// replaces the value of an existing key (upsert), which is what the
// paper's spZone re-runs rely on.
//
// Node page layout (reserve = 5 bytes before the slotted area):
//
//	byte 0     node type: 1 leaf, 2 internal
//	bytes 1-4  leaf: next-leaf PageID; internal: leftmost child PageID
//
// Leaf records are  uint16 keyLen | key | value.
// Internal records are  uint16 keyLen | key | uint32 childPageID, where the
// child holds keys >= key.
type BTree struct {
	mu   sync.RWMutex
	pool *Pool
	root PageID
}

const (
	nodeLeaf     = 1
	nodeInternal = 2
	nodeReserve  = 5
	// MaxRecordSize bounds key+value so a split always succeeds: four
	// max-size records must fit in a page.
	MaxRecordSize = (PageSize - nodeReserve - 4) / 4
)

// NewBTree creates an empty tree (a single leaf root).
func NewBTree(pool *Pool) (*BTree, error) {
	h, err := pool.New()
	if err != nil {
		return nil, err
	}
	h.Buf[0] = nodeLeaf
	putChild(h.Buf, InvalidPageID)
	InitSlotted(h.Buf, nodeReserve)
	root := h.ID
	h.Release(true)
	return &BTree{pool: pool, root: root}, nil
}

// OpenBTree re-attaches to an existing tree by its root page.
func OpenBTree(pool *Pool, root PageID) *BTree {
	return &BTree{pool: pool, root: root}
}

// Root returns the current root page id (it changes when the root splits).
func (t *BTree) Root() PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

func putChild(buf []byte, id PageID) { binary.LittleEndian.PutUint32(buf[1:5], uint32(id)) }
func getChild(buf []byte) PageID     { return PageID(binary.LittleEndian.Uint32(buf[1:5])) }

func leafRecord(key, value []byte) []byte {
	rec := make([]byte, 2+len(key)+len(value))
	binary.LittleEndian.PutUint16(rec, uint16(len(key)))
	copy(rec[2:], key)
	copy(rec[2+len(key):], value)
	return rec
}

func splitLeafRecord(rec []byte) (key, value []byte) {
	klen := int(binary.LittleEndian.Uint16(rec))
	return rec[2 : 2+klen], rec[2+klen:]
}

func internalRecord(key []byte, child PageID) []byte {
	rec := make([]byte, 2+len(key)+4)
	binary.LittleEndian.PutUint16(rec, uint16(len(key)))
	copy(rec[2:], key)
	binary.LittleEndian.PutUint32(rec[2+len(key):], uint32(child))
	return rec
}

func splitInternalRecord(rec []byte) (key []byte, child PageID) {
	klen := int(binary.LittleEndian.Uint16(rec))
	return rec[2 : 2+klen], PageID(binary.LittleEndian.Uint32(rec[2+klen:]))
}

// search returns the index of the first slot whose key is >= key, and
// whether an exact match exists at that index.
func search(p SlottedPage, key []byte, leaf bool) (int, bool) {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		var k []byte
		if leaf {
			k, _ = splitLeafRecord(p.Record(mid))
		} else {
			k, _ = splitInternalRecord(p.Record(mid))
		}
		if bytes.Compare(k, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < p.NumSlots() {
		var k []byte
		if leaf {
			k, _ = splitLeafRecord(p.Record(lo))
		} else {
			k, _ = splitInternalRecord(p.Record(lo))
		}
		if bytes.Equal(k, key) {
			return lo, true
		}
	}
	return lo, false
}

// childFor returns the child page to descend into for key.
func childFor(buf []byte, key []byte) PageID {
	p := AsSlotted(buf, nodeReserve)
	idx, exact := search(p, key, false)
	if exact {
		_, c := splitInternalRecord(p.Record(idx))
		return c
	}
	if idx == 0 {
		return getChild(buf)
	}
	_, c := splitInternalRecord(p.Record(idx - 1))
	return c
}

type splitResult struct {
	sepKey []byte
	right  PageID
}

// Insert adds or replaces key's value.
func (t *BTree) Insert(key, value []byte) error {
	if len(key)+len(value)+2 > MaxRecordSize {
		return fmt.Errorf("storage: record for key of %d bytes exceeds max record size %d", len(key), MaxRecordSize)
	}
	if len(key) == 0 {
		return fmt.Errorf("storage: empty key")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	split, err := t.insert(t.root, key, value)
	if err != nil {
		return err
	}
	if split == nil {
		return nil
	}
	// Root split: create a new internal root.
	h, err := t.pool.New()
	if err != nil {
		return err
	}
	h.Buf[0] = nodeInternal
	putChild(h.Buf, t.root)
	p := InitSlotted(h.Buf, nodeReserve)
	if !p.InsertAt(0, internalRecord(split.sepKey, split.right)) {
		h.Release(true)
		return fmt.Errorf("storage: new root overflow")
	}
	t.root = h.ID
	h.Release(true)
	return nil
}

func (t *BTree) insert(id PageID, key, value []byte) (*splitResult, error) {
	h, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	if h.Buf[0] == nodeLeaf {
		defer h.Release(true)
		return t.insertLeaf(h, key, value)
	}
	child := childFor(h.Buf, key)
	h.Release(false)

	split, err := t.insert(child, key, value)
	if err != nil || split == nil {
		return nil, err
	}
	// Re-pin the parent and add the separator.
	h, err = t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	defer h.Release(true)
	p := AsSlotted(h.Buf, nodeReserve)
	idx, _ := search(p, split.sepKey, false)
	rec := internalRecord(split.sepKey, split.right)
	if p.InsertAt(idx, rec) {
		return nil, nil
	}
	return t.splitInternal(h, idx, rec)
}

func (t *BTree) insertLeaf(h *Handle, key, value []byte) (*splitResult, error) {
	p := AsSlotted(h.Buf, nodeReserve)
	idx, exact := search(p, key, true)
	rec := leafRecord(key, value)
	if exact {
		p.RemoveAt(idx)
		p.Compact()
	}
	if p.InsertAt(idx, rec) {
		return nil, nil
	}
	p.Compact()
	if p.InsertAt(idx, rec) {
		return nil, nil
	}
	// Split: move the upper half of the records to a new right leaf.
	right, err := t.pool.New()
	if err != nil {
		return nil, err
	}
	defer right.Release(true)
	right.Buf[0] = nodeLeaf
	putChild(right.Buf, getChild(h.Buf)) // right.next = left.next
	rp := InitSlotted(right.Buf, nodeReserve)

	n := p.NumSlots()
	mid := n / 2
	for i := mid; i < n; i++ {
		if _, ok := rp.Insert(p.Record(i)); !ok {
			return nil, fmt.Errorf("storage: leaf split overflow")
		}
	}
	for i := n - 1; i >= mid; i-- {
		p.RemoveAt(i)
	}
	p.Compact()
	putChild(h.Buf, right.ID) // left.next = right

	// Insert the pending record into the correct side, then derive the
	// separator from the right leaf's (possibly new) first key.
	target, tidx := p, idx
	if idx >= mid {
		target, tidx = rp, idx-mid
	}
	if !target.InsertAt(tidx, rec) {
		return nil, fmt.Errorf("storage: leaf split could not place record")
	}
	sep, _ := splitLeafRecord(rp.Record(0))
	sepKey := append([]byte(nil), sep...)
	return &splitResult{sepKey: sepKey, right: right.ID}, nil
}

func (t *BTree) splitInternal(h *Handle, pendingIdx int, pendingRec []byte) (*splitResult, error) {
	p := AsSlotted(h.Buf, nodeReserve)
	p.Compact()
	if p.InsertAt(pendingIdx, pendingRec) {
		return nil, nil
	}
	right, err := t.pool.New()
	if err != nil {
		return nil, err
	}
	defer right.Release(true)
	right.Buf[0] = nodeInternal
	rp := InitSlotted(right.Buf, nodeReserve)

	n := p.NumSlots()
	mid := n / 2
	// The middle separator is promoted; its child becomes the right
	// node's leftmost child.
	midKey, midChild := splitInternalRecord(p.Record(mid))
	sepKey := append([]byte(nil), midKey...)
	putChild(right.Buf, midChild)
	for i := mid + 1; i < n; i++ {
		if _, ok := rp.Insert(p.Record(i)); !ok {
			return nil, fmt.Errorf("storage: internal split overflow")
		}
	}
	for i := n - 1; i >= mid; i-- {
		p.RemoveAt(i)
	}
	p.Compact()

	// Place the pending record on the correct side. A pending key at
	// index mid sorts below the promoted key, so it belongs at the end
	// of the left node.
	if pendingIdx <= mid {
		if !p.InsertAt(pendingIdx, pendingRec) {
			return nil, fmt.Errorf("storage: internal split could not place record (left)")
		}
	} else {
		if !rp.InsertAt(pendingIdx-mid-1, pendingRec) {
			return nil, fmt.Errorf("storage: internal split could not place record (right)")
		}
	}
	return &splitResult{sepKey: sepKey, right: right.ID}, nil
}

// Get returns the value for key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id := t.root
	for {
		h, err := t.pool.Get(id)
		if err != nil {
			return nil, false, err
		}
		if h.Buf[0] == nodeInternal {
			id = childFor(h.Buf, key)
			h.Release(false)
			continue
		}
		p := AsSlotted(h.Buf, nodeReserve)
		idx, exact := search(p, key, true)
		if !exact {
			h.Release(false)
			return nil, false, nil
		}
		_, v := splitLeafRecord(p.Record(idx))
		out := append([]byte(nil), v...)
		h.Release(false)
		return out, true, nil
	}
}

// Delete removes key if present and reports whether it was found. Pages are
// not merged or reclaimed (deletion is rare in this workload; TRUNCATE
// rebuilds the tree instead).
func (t *BTree) Delete(key []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.root
	for {
		h, err := t.pool.Get(id)
		if err != nil {
			return false, err
		}
		if h.Buf[0] == nodeInternal {
			id = childFor(h.Buf, key)
			h.Release(false)
			continue
		}
		p := AsSlotted(h.Buf, nodeReserve)
		idx, exact := search(p, key, true)
		if !exact {
			h.Release(false)
			return false, nil
		}
		p.RemoveAt(idx)
		h.Release(true)
		return true, nil
	}
}

// Cursor iterates leaf records in key order. It holds a pin on the current
// leaf; Close releases it. Key and Value return copies.
type Cursor struct {
	tree  *BTree
	h     *Handle
	slot  int
	key   []byte
	value []byte
	valid bool
}

// Seek positions a cursor at the first key >= key.
func (t *BTree) Seek(key []byte) (*Cursor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Cursor{tree: t}
	id := t.root
	for {
		h, err := t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		if h.Buf[0] == nodeInternal {
			id = childFor(h.Buf, key)
			h.Release(false)
			continue
		}
		p := AsSlotted(h.Buf, nodeReserve)
		c.h = h
		c.slot, _ = search(p, key, true)
		if err := c.load(); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
}

// First positions a cursor at the smallest key.
func (t *BTree) First() (*Cursor, error) { return t.Seek([]byte{}) }

// load copies the current record, following next-leaf pointers past empty
// leaves and page ends.
func (c *Cursor) load() error {
	for {
		p := AsSlotted(c.h.Buf, nodeReserve)
		if c.slot < p.NumSlots() {
			k, v := splitLeafRecord(p.Record(c.slot))
			c.key = append(c.key[:0], k...)
			c.value = append(c.value[:0], v...)
			c.valid = true
			return nil
		}
		next := getChild(c.h.Buf)
		c.h.Release(false)
		c.h = nil
		if next == InvalidPageID {
			c.valid = false
			return nil
		}
		h, err := c.tree.pool.Get(next)
		if err != nil {
			c.valid = false
			return err
		}
		c.h = h
		c.slot = 0
	}
}

// Valid reports whether the cursor is positioned on a record.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current key (valid until the next cursor call).
func (c *Cursor) Key() []byte { return c.key }

// Value returns the current value (valid until the next cursor call).
func (c *Cursor) Value() []byte { return c.value }

// Next advances to the following record.
func (c *Cursor) Next() error {
	if !c.valid {
		return fmt.Errorf("storage: Next on exhausted cursor")
	}
	c.slot++
	return c.load()
}

// Close releases the cursor's pin. Safe to call multiple times.
func (c *Cursor) Close() {
	if c.h != nil {
		c.h.Release(false)
		c.h = nil
	}
	c.valid = false
}

// Len walks the tree and counts records; O(n), used by tests and TRUNCATE
// accounting.
func (t *BTree) Len() (int, error) {
	c, err := t.First()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	n := 0
	for c.Valid() {
		n++
		if err := c.Next(); err != nil {
			return n, err
		}
	}
	return n, nil
}
