// Package colstore implements the engine's column-major storage: segment
// pages holding one group's rows (a zone's, in the paper's workload) with
// every column packed as a contiguous array of 8-byte values, plus an
// in-memory directory carrying per-segment min/max sort keys for window
// skipping.
//
// The layout exists for one access pattern: scan-heavy batch extracts
// whose inner loop is arithmetic over a few numeric columns — the shape of
// the zone sweep (chord tests over ra/cx/cy/cz) and of the grid-warehouse
// line of work (Iqbal et al.) the ROADMAP points at. A row store answers
// such a scan by decoding a varint-and-bitmap payload per row; a segment
// page answers it by handing the scan raw []float64 slices.
//
// Segments live in ordinary 8 KiB pages (storage.PageKindColumnar) fetched
// through the same pinning buffer pool as the B+tree, so every segment read
// and write is counted by the same Stats behind the paper's I/O column. A
// Builder materialises segments from input that is already grouped and
// sorted — e.g. straight from the (zone, ra)-sorted run a bulk zone-table
// load produces — and a Scanner re-reads one segment at a time into reused
// column scratch.
//
// colstore knows nothing about SQL or zones: sqldb attaches a colstore
// table to a row table as its "columnar projection"
// (sqldb.Table.SetColumnar) or publishes one as a table's only storage
// (sqldb.Table.LoadColumnar), and internal/zone builds the Zone table's
// segments and sweeps them.
package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/storage"
)

// Kind is a column's physical type. Every column is stored 8 bytes wide,
// so a segment's capacity depends only on the column count.
type Kind uint8

const (
	// Int64 columns hold signed integers (ids, zone numbers).
	Int64 Kind = iota
	// Float64 columns hold IEEE-754 doubles, bit-exact round trip.
	Float64
)

// Column describes one column of a columnar table.
type Column struct {
	Name string
	Kind Kind
}

// Schema is the ordered column list of a columnar table.
type Schema []Column

// Equal reports whether two schemas have identical column names and kinds.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// SegmentCapacity returns the maximum rows per segment page for a schema of
// ncols columns.
func SegmentCapacity(ncols int) int {
	return (storage.PageSize - storage.ColumnarHeaderSize) / (8 * ncols)
}

// SegmentMeta is one directory entry: where a segment lives and the bounds
// a scan needs to decide — without I/O — whether to fetch it. MinSort and
// MaxSort are the segment's smallest and largest sort-column values; a scan
// whose key window ends below MinSort or starts above MaxSort skips the
// page entirely, the columnar analogue of a B+tree descent pruning leaves.
type SegmentMeta struct {
	Page    storage.PageID
	Group   int64
	Rows    int
	MinSort float64
	MaxSort float64
}

// Table is a built columnar table: an ordered run of segments, grouped
// contiguously by the group column and sorted by the sort column within
// each group. The directory (segment metadata) is in-memory catalog state,
// like a sqldb table's root page id; the column data itself is all in
// buffer-pool pages.
type Table struct {
	pool     *storage.Pool
	schema   Schema
	groupCol int
	sortCol  int
	segs     []SegmentMeta
	rows     int64
}

// Pool returns the buffer pool holding the table's segment pages.
func (t *Table) Pool() *storage.Pool { return t.pool }

// Schema returns the table's column list. Callers must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// GroupCol returns the schema index of the grouping column.
func (t *Table) GroupCol() int { return t.groupCol }

// SortCol returns the schema index of the sort column.
func (t *Table) SortCol() int { return t.sortCol }

// NumRows returns the total row count.
func (t *Table) NumRows() int64 { return t.rows }

// Segments returns the full directory in storage order. Callers must not
// modify it.
func (t *Table) Segments() []SegmentMeta { return t.segs }

// GroupSegments returns the directory entries of one group (in sort-column
// order), or an empty slice if the group holds no rows. Groups are
// contiguous and ascending by construction, so this is a binary search.
func (t *Table) GroupSegments(group int64) []SegmentMeta {
	lo := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].Group >= group })
	hi := lo
	for hi < len(t.segs) && t.segs[hi].Group == group {
		hi++
	}
	return t.segs[lo:hi]
}

// Groups returns the view of t holding only the groups in [lo, hi]: the
// same pool, schema and segment pages, and the directory entries of those
// groups. Bounds outside the table clip to it; lo > hi gives an empty view.
// The view reads t's pages, so it lives exactly as long as t does.
func (t *Table) Groups(lo, hi int64) *Table {
	a := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].Group >= lo })
	b := a
	if lo <= hi {
		b = sort.Search(len(t.segs), func(i int) bool { return t.segs[i].Group > hi })
	}
	v := *t
	v.segs = t.segs[a:b:b]
	v.rows = 0
	for _, m := range v.segs {
		v.rows += int64(m.Rows)
	}
	return &v
}

// Scanner reads segments back one at a time into scratch slices that are
// reused across Load calls — a scan loop allocates once, not per segment.
// Columns decode lazily: Load copies the raw page once and each column's
// array materialises on its first Ints/Floats touch, so a sweep that
// rejects a whole segment on its leading columns (ra and the unit vector,
// in the zone workload) never pays to decode the photometry tail. Each
// of several concurrent sweeps owns its own Scanner; the underlying
// buffer pool is safe for concurrent use.
type Scanner struct {
	t       *Table
	rows    int
	loaded  storage.PageID // segment page currently staged (InvalidPageID: none)
	page    []byte         // raw copy of the loaded segment page (pin released)
	decoded []bool         // per schema column: scratch slice holds this segment
	ints    [][]int64
	floats  [][]float64
}

// NewScanner returns a scanner over the table.
func (t *Table) NewScanner() *Scanner {
	return &Scanner{
		t:       t,
		decoded: make([]bool, len(t.schema)),
		ints:    make([][]int64, len(t.schema)),
		floats:  make([][]float64, len(t.schema)),
	}
}

// Load fetches one segment page through the buffer pool (counted I/O) and
// stages it for column access, replacing the previously loaded segment.
// No column decodes here: the page bytes are copied (so the pool pin is
// released immediately) and each array materialises on first touch.
//
// Re-loading the segment already staged is free, so a probe run that
// revisits one segment page (a sweep's overlapping windows in one zone)
// skips the pool and keeps its decoded column arrays. Segment pages are
// immutable once built, so the staged copy can never go stale.
func (s *Scanner) Load(m SegmentMeta) error {
	if m.Page == s.loaded && m.Page != storage.InvalidPageID {
		return nil
	}
	s.loaded = storage.InvalidPageID
	h, err := s.t.pool.Get(m.Page)
	if err != nil {
		return err
	}
	hdr, err := storage.ReadColumnarHeader(h.Buf)
	if err != nil {
		h.Release(false)
		return err
	}
	if hdr.Rows != m.Rows || hdr.Group != m.Group {
		h.Release(false)
		return fmt.Errorf("colstore: segment page %d holds group %d (%d rows), directory says group %d (%d rows)",
			m.Page, hdr.Group, hdr.Rows, m.Group, m.Rows)
	}
	need := storage.ColumnarHeaderSize + 8*hdr.Rows*len(s.t.schema)
	if cap(s.page) < need {
		s.page = make([]byte, need)
	}
	s.page = s.page[:need]
	copy(s.page, h.Buf[:need])
	h.Release(false)
	for ci := range s.decoded {
		s.decoded[ci] = false
	}
	s.rows = hdr.Rows
	s.loaded = m.Page
	return nil
}

// colData returns the loaded segment's raw bytes for schema column ci.
// Every column is 8 bytes wide, so the array starts at a fixed stride.
func (s *Scanner) colData(ci int) []byte {
	off := storage.ColumnarHeaderSize + 8*s.rows*ci
	return s.page[off : off+8*s.rows]
}

// NumRows returns the loaded segment's row count.
func (s *Scanner) NumRows() int { return s.rows }

// Ints returns the loaded segment's values for schema column ci, which must
// be an Int64 column. The first touch after a Load decodes the array; the
// slice is overwritten by the next Load.
func (s *Scanner) Ints(ci int) []int64 {
	if s.t.schema[ci].Kind != Int64 {
		panic(fmt.Sprintf("colstore: column %d (%s) is not Int64", ci, s.t.schema[ci].Name))
	}
	if !s.decoded[ci] {
		data := s.colData(ci)
		buf := s.ints[ci]
		if cap(buf) < s.rows {
			buf = make([]int64, s.rows)
		}
		buf = buf[:s.rows]
		for r := range buf {
			buf[r] = int64(binary.LittleEndian.Uint64(data[8*r:]))
		}
		s.ints[ci] = buf
		s.decoded[ci] = true
	}
	return s.ints[ci][:s.rows]
}

// Floats returns the loaded segment's values for schema column ci, which
// must be a Float64 column. The first touch after a Load decodes the array;
// the slice is overwritten by the next Load.
func (s *Scanner) Floats(ci int) []float64 {
	if s.t.schema[ci].Kind != Float64 {
		panic(fmt.Sprintf("colstore: column %d (%s) is not Float64", ci, s.t.schema[ci].Name))
	}
	if !s.decoded[ci] {
		data := s.colData(ci)
		buf := s.floats[ci]
		if cap(buf) < s.rows {
			buf = make([]float64, s.rows)
		}
		buf = buf[:s.rows]
		for r := range buf {
			buf[r] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*r:]))
		}
		s.floats[ci] = buf
		s.decoded[ci] = true
	}
	return s.floats[ci][:s.rows]
}
