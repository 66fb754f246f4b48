// Package storage implements the page substrate of the reproduction's
// database engine: 8 KiB slotted pages, an in-memory page store, a pinning
// buffer pool with hit/miss/write accounting, a write-once B+tree used as
// the clustered index the paper's spZone builds, the columnar segment page
// kind behind internal/colstore, and order-preserving key encodings.
//
// The buffer pool's counters are what let the benchmark harness report the
// "I/O" column of the paper's Table 1.
//
// Concurrency contract: Pool is safe for concurrent use — Get/New/Release
// lock only the page's shard, and a pinned Handle's frame is never
// evicted, so any number of goroutines may hold pages at once. A BTree is
// immutable once BulkLoader.Finish returns it, so its reads need no lock
// (each Cursor pins at most one leaf and owns its position); one
// BulkLoader is driven by one goroutine. See ARCHITECTURE.md for how
// concurrent zone sweeps lean on this: one cursor per sweep over the
// shared pool.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every page in bytes (SQL Server uses 8 KiB pages;
// we follow it).
const PageSize = 8192

// PageID identifies a page within a store. A store never hands out page 0,
// so valid data pages start at 1.
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
// Records are only appended: a page is filled once, in slot order, and
// then read.
const slotEntrySize = 4

// SlottedPage wraps a page buffer with an append-and-read record
// interface. reserve is the number of leading bytes owned by the caller
// (e.g. B+tree node headers).
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

// NumSlots returns the number of records.
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

// Record returns the bytes of slot i. The slice aliases the page buffer;
// callers must copy before unpinning.
func (p SlottedPage) Record(i int) []byte {
	off, length := p.slot(i)
	return p.buf[off : off+length]
}

// Validate performs structural checks; used by tests and failure injection.
func (p SlottedPage) Validate() error {
	n := p.slotCount()
	lowest := len(p.buf)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
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
