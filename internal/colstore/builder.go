package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/storage"
)

// Builder materialises a columnar table from input that already arrives in
// storage order: grouped by an ascending Int64 group column and sorted by a
// Float64 sort column within each group — exactly the order a bulk
// clustered load's sorted run emits, so building the projection costs one
// sequential pass and one page write per segment, no sorting and no reads.
//
// A segment seals when its page fills or the group changes, so a group
// never spans a page boundary's worth of another group: each segment page
// belongs to exactly one group, which is what lets a sweep treat the
// per-group segment list as that zone's private, skippable page run.
type Builder struct {
	pool     *storage.Pool
	schema   Schema
	groupCol int
	sortCol  int
	cap      int
	// bucketPos maps a schema column index to its position within the
	// caller's per-kind Add slices.
	bucketPos      []int
	nints, nfloats int
	ints           [][]int64   // pending segment, column-major, per schema col
	floats         [][]float64 // (only the matching-kind slice is non-nil)
	n              int         // pending rows
	group          int64       // pending segment's group
	started        bool
	lastGroup      int64
	lastSort       float64
	segs           []SegmentMeta
	rows           int64
	done           bool
}

// NewBuilder starts a build into fresh pages of pool. groupCol must name an
// Int64 schema column and sortCol a Float64 one.
func NewBuilder(pool *storage.Pool, schema Schema, groupCol, sortCol int) (*Builder, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("colstore: empty schema")
	}
	if groupCol < 0 || groupCol >= len(schema) || schema[groupCol].Kind != Int64 {
		return nil, fmt.Errorf("colstore: group column %d must be an Int64 schema column", groupCol)
	}
	if sortCol < 0 || sortCol >= len(schema) || schema[sortCol].Kind != Float64 {
		return nil, fmt.Errorf("colstore: sort column %d must be a Float64 schema column", sortCol)
	}
	if SegmentCapacity(len(schema)) < 1 {
		return nil, fmt.Errorf("colstore: %d columns do not fit a single row in a segment page", len(schema))
	}
	b := &Builder{
		pool:      pool,
		schema:    append(Schema(nil), schema...),
		groupCol:  groupCol,
		sortCol:   sortCol,
		cap:       SegmentCapacity(len(schema)),
		bucketPos: make([]int, len(schema)),
		ints:      make([][]int64, len(schema)),
		floats:    make([][]float64, len(schema)),
	}
	for ci, c := range schema {
		switch c.Kind {
		case Int64:
			b.bucketPos[ci] = b.nints
			b.nints++
		case Float64:
			b.bucketPos[ci] = b.nfloats
			b.nfloats++
		default:
			return nil, fmt.Errorf("colstore: column %s has unknown kind %d", c.Name, c.Kind)
		}
	}
	return b, nil
}

// Add appends one row: ints holds the Int64 columns' values in schema
// order, floats the Float64 columns'. Rows must arrive with the group
// column ascending and the sort column ascending within each group;
// out-of-order input is an error, not silently resorted. The sort column
// ascends in the clustered key's float order (storage.Float64Key), not by
// <: -0 must precede +0 and NaNs sit where the key encoding puts them, so
// a segment run can never order rows differently from a B+tree over the
// same keys.
func (b *Builder) Add(ints []int64, floats []float64) error {
	if b.done {
		return fmt.Errorf("colstore: Add after Finish")
	}
	if len(ints) != b.nints || len(floats) != b.nfloats {
		return fmt.Errorf("colstore: Add got %d int and %d float values, schema has %d and %d",
			len(ints), len(floats), b.nints, b.nfloats)
	}
	group := ints[b.bucketPos[b.groupCol]]
	sortV := floats[b.bucketPos[b.sortCol]]
	if b.started {
		if group < b.lastGroup || (group == b.lastGroup && storage.Float64Key(sortV) < storage.Float64Key(b.lastSort)) {
			return fmt.Errorf("colstore: row (group %d, sort %g) arrived after (group %d, sort %g); input must be grouped and sorted",
				group, sortV, b.lastGroup, b.lastSort)
		}
	}
	if b.n > 0 && (group != b.group || b.n == b.cap) {
		if err := b.flush(); err != nil {
			return err
		}
	}
	if b.n == 0 {
		b.group = group
	}
	for ci, c := range b.schema {
		switch c.Kind {
		case Int64:
			b.ints[ci] = append(b.ints[ci], ints[b.bucketPos[ci]])
		case Float64:
			b.floats[ci] = append(b.floats[ci], floats[b.bucketPos[ci]])
		}
	}
	b.n++
	b.started = true
	b.lastGroup, b.lastSort = group, sortV
	return nil
}

// flush writes the pending segment into a fresh page and records its
// directory entry. The sort column is ascending within the segment, so its
// first and last values are the min/max bounds (in key order).
func (b *Builder) flush() error {
	if b.n == 0 {
		return nil
	}
	h, err := b.pool.New()
	if err != nil {
		return err
	}
	sorts := b.floats[b.sortCol]
	minSort, maxSort := sorts[0], sorts[b.n-1]
	storage.PutColumnarHeader(h.Buf, storage.ColumnarHeader{
		Rows:    b.n,
		Group:   b.group,
		MinSort: minSort,
		MaxSort: maxSort,
	})
	off := storage.ColumnarHeaderSize
	for ci, c := range b.schema {
		switch c.Kind {
		case Int64:
			for _, v := range b.ints[ci] {
				binary.LittleEndian.PutUint64(h.Buf[off:], uint64(v))
				off += 8
			}
			b.ints[ci] = b.ints[ci][:0]
		case Float64:
			for _, v := range b.floats[ci] {
				binary.LittleEndian.PutUint64(h.Buf[off:], math.Float64bits(v))
				off += 8
			}
			b.floats[ci] = b.floats[ci][:0]
		}
	}
	b.segs = append(b.segs, SegmentMeta{
		Page:    h.ID,
		Group:   b.group,
		Rows:    b.n,
		MinSort: minSort,
		MaxSort: maxSort,
	})
	h.Release(true)
	b.rows += int64(b.n)
	b.n = 0
	return nil
}

// Finish seals the pending segment and returns the built table. The
// builder cannot be reused.
func (b *Builder) Finish() (*Table, error) {
	if b.done {
		return nil, fmt.Errorf("colstore: Finish after Finish")
	}
	if err := b.flush(); err != nil {
		return nil, err
	}
	b.done = true
	return &Table{
		pool:     b.pool,
		schema:   b.schema,
		groupCol: b.groupCol,
		sortCol:  b.sortCol,
		segs:     b.segs,
		rows:     b.rows,
	}, nil
}
