// Package storage implements the on-disk substrate of the reproduction's
// database engine: 8 KiB slotted pages, page stores (file-backed and
// in-memory), a pinning buffer pool with hit/miss/write accounting, a B+tree
// used as the clustered index the paper's spZone builds, the columnar
// segment page kind behind internal/colstore, and order-preserving key
// encodings.
//
// The buffer pool's counters are what let the benchmark harness report the
// "I/O" column of the paper's Table 1.
//
// Concurrency contract: Pool is safe for concurrent use — Get/New/Release
// serialise on one mutex, and a pinned Handle's frame is never evicted, so
// any number of goroutines may hold pages at once. BTree reads are safe
// concurrently with each other (each Cursor pins at most one leaf and owns
// its position); writes (Insert, BulkLoader) assume a single writer, which
// the sqldb layer guarantees by holding Table.mu. See ARCHITECTURE.md for
// how concurrent zone sweeps lean on this: one cursor per sweep over the
// shared pool.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every page in bytes (SQL Server uses 8 KiB pages;
// we follow it).
const PageSize = 8192

// PageID identifies a page within a store. Page 0 is reserved for store
// metadata, so valid data pages start at 1.
type PageID uint32

// InvalidPageID marks "no page", e.g. the next-pointer of the last leaf.
const InvalidPageID PageID = 0

// Slotted page layout. Offsets are within the page's private area, which
// starts after the caller-owned header (see InitSlotted):
//
//	base+0:  uint16 slot count
//	base+2:  uint16 free-space end (records grow downward from PageSize)
//	base+4:  slot array, 4 bytes per slot: uint16 offset, uint16 length
//	...
//	records packed at the tail of the page
//
// A deleted slot has length 0xFFFF; its space is reclaimed by Compact.
const (
	slotEntrySize = 4
	deadSlotLen   = 0xFFFF
)

// SlottedPage wraps a page buffer with a record-oriented interface. reserve
// is the number of leading bytes owned by the caller (e.g. B+tree node
// headers).
type SlottedPage struct {
	buf     []byte
	reserve int
}

// InitSlotted formats buf as an empty slotted page with the given reserved
// header prefix and returns the wrapper.
func InitSlotted(buf []byte, reserve int) SlottedPage {
	p := SlottedPage{buf: buf, reserve: reserve}
	p.setSlotCount(0)
	p.setFreeEnd(uint16(len(buf)))
	return p
}

// AsSlotted interprets an already-formatted buffer.
func AsSlotted(buf []byte, reserve int) SlottedPage {
	return SlottedPage{buf: buf, reserve: reserve}
}

func (p SlottedPage) base() int { return p.reserve }

func (p SlottedPage) slotCount() int {
	return int(binary.LittleEndian.Uint16(p.buf[p.base():]))
}

func (p SlottedPage) setSlotCount(n int) {
	binary.LittleEndian.PutUint16(p.buf[p.base():], uint16(n))
}

func (p SlottedPage) freeEnd() int {
	return int(binary.LittleEndian.Uint16(p.buf[p.base()+2:]))
}

func (p SlottedPage) setFreeEnd(v uint16) {
	binary.LittleEndian.PutUint16(p.buf[p.base()+2:], v)
}

func (p SlottedPage) slotPos(i int) int { return p.base() + 4 + i*slotEntrySize }

func (p SlottedPage) slot(i int) (off, length int) {
	pos := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.buf[pos:])),
		int(binary.LittleEndian.Uint16(p.buf[pos+2:]))
}

func (p SlottedPage) setSlot(i, off, length int) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.buf[pos:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pos+2:], uint16(length))
}

// NumSlots returns the number of slots, including dead ones.
func (p SlottedPage) NumSlots() int { return p.slotCount() }

// FreeSpace returns the bytes available for one more record (including its
// slot entry).
func (p SlottedPage) FreeSpace() int {
	free := p.freeEnd() - (p.base() + 4 + p.slotCount()*slotEntrySize)
	free -= slotEntrySize
	if free < 0 {
		return 0
	}
	return free
}

// Insert appends a record and returns its slot number, or ok=false if the
// page is full.
func (p SlottedPage) Insert(rec []byte) (slot int, ok bool) {
	if len(rec) > p.FreeSpace() {
		return 0, false
	}
	n := p.slotCount()
	end := p.freeEnd() - len(rec)
	copy(p.buf[end:], rec)
	p.setSlot(n, end, len(rec))
	p.setSlotCount(n + 1)
	p.setFreeEnd(uint16(end))
	return n, true
}

// InsertAt inserts a record at slot index i, shifting later slots up by one.
// Used by the B+tree to keep records key-ordered.
func (p SlottedPage) InsertAt(i int, rec []byte) bool {
	if len(rec) > p.FreeSpace() {
		return false
	}
	n := p.slotCount()
	if i < 0 || i > n {
		return false
	}
	end := p.freeEnd() - len(rec)
	copy(p.buf[end:], rec)
	// Shift slot entries [i, n) to [i+1, n+1).
	start := p.slotPos(i)
	stop := p.slotPos(n)
	copy(p.buf[start+slotEntrySize:stop+slotEntrySize], p.buf[start:stop])
	p.setSlot(i, end, len(rec))
	p.setSlotCount(n + 1)
	p.setFreeEnd(uint16(end))
	return true
}

// Record returns the bytes of slot i (nil for a dead slot). The slice
// aliases the page buffer; callers must copy before unpinning.
func (p SlottedPage) Record(i int) []byte {
	off, length := p.slot(i)
	if length == deadSlotLen {
		return nil
	}
	return p.buf[off : off+length]
}

// Delete marks slot i dead. Space is reclaimed by Compact.
func (p SlottedPage) Delete(i int) {
	off, _ := p.slot(i)
	p.setSlot(i, off, deadSlotLen)
}

// RemoveAt removes slot i entirely, shifting later slots down by one. Record
// space is not reclaimed until Compact.
func (p SlottedPage) RemoveAt(i int) {
	n := p.slotCount()
	start := p.slotPos(i)
	stop := p.slotPos(n)
	copy(p.buf[start:], p.buf[start+slotEntrySize:stop])
	p.setSlotCount(n - 1)
}

// Compact rewrites live records to eliminate holes left by deletions and
// replaced records. Slot numbers are preserved; dead slots remain dead.
// Live bytes are staged in a scratch buffer first, because repacking in
// place could overwrite records whose slot order differs from their offset
// order.
func (p SlottedPage) Compact() {
	type live struct{ slot, length, pos int }
	var recs []live
	tmp := make([]byte, 0, PageSize)
	for i := 0; i < p.slotCount(); i++ {
		off, length := p.slot(i)
		if length == deadSlotLen {
			continue
		}
		recs = append(recs, live{slot: i, length: length, pos: len(tmp)})
		tmp = append(tmp, p.buf[off:off+length]...)
	}
	end := len(p.buf)
	for _, r := range recs {
		end -= r.length
		copy(p.buf[end:], tmp[r.pos:r.pos+r.length])
		p.setSlot(r.slot, end, r.length)
	}
	p.setFreeEnd(uint16(end))
}

// Validate performs structural checks; used by tests and failure injection.
func (p SlottedPage) Validate() error {
	n := p.slotCount()
	lowest := len(p.buf)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if length == deadSlotLen {
			continue
		}
		if off < p.base()+4+n*slotEntrySize || off+length > len(p.buf) {
			return fmt.Errorf("storage: slot %d record [%d,%d) out of bounds", i, off, off+length)
		}
		if off < lowest {
			lowest = off
		}
	}
	if p.freeEnd() > lowest {
		return fmt.Errorf("storage: freeEnd %d above lowest record %d", p.freeEnd(), lowest)
	}
	return nil
}
