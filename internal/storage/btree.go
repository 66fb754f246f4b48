package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// BTree is a B+tree over a buffer pool: the engine's clustered index.
// Keys are unique, order-preserving byte strings (see keys.go). A tree is
// written once, by BulkLoader (or NewBTree's empty leaf), and is read-only
// from then on: its root and pages never change, so any number of
// goroutines may Seek and scan it without a lock. A table that
// changes publishes a new tree.
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
	pool *Pool
	root PageID
}

const (
	nodeLeaf     = 1
	nodeInternal = 2
	nodeReserve  = 5
	// MaxRecordSize bounds a leaf record (key, value and the key's
	// 2-byte length) to a quarter of a page, so every packed page, leaf
	// or internal, holds at least three records.
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

// Root returns the root page id.
func (t *BTree) Root() PageID { return t.root }

func putChild(buf []byte, id PageID) { binary.LittleEndian.PutUint32(buf[1:5], uint32(id)) }
func getChild(buf []byte) PageID     { return PageID(binary.LittleEndian.Uint32(buf[1:5])) }

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
