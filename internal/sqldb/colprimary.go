package sqldb

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// Column-primary tables: a version whose rows live only in colstore
// segment pages, with no row B+tree. The segments are the primary storage
// and their in-memory directory (per-segment group and min/max sort key)
// is the only index — the grid file's bucket pages and bucket directory.
// Every read API still works: cursors walk the segments in the order the
// clustered tree would return (key order, ties in rowid order, rowids
// assigned in segment order), so SQL, range scans and sweeps cannot tell
// the difference. The first write that needs a tree (Insert, BulkInsert)
// materialises it from the segments — exactly the tree a bulk load of the
// same rows would have built — and proceeds as on any row table.

// LoadColumnar publishes ct as the rows of the empty table t: the new
// version keeps no row B+tree, and every read is served from ct's segment
// pages. It is the bulk load of a table that is only ever scanned in
// clustered order (the Zone table spZone builds), at the cost of one
// segment build instead of a segment build plus a tree build.
//
// t must be empty, with a non-unique clustered key of exactly two columns:
// an integer (the segment group) and a float (the in-group sort). ct must
// cover the schema column for column (as BuildColumnarProjection's
// projections do), be grouped by the first key column and sorted by the
// second, and live in t's buffer pool. Rowids follow segment order, so
// tied keys scan in the order they were added to the builder.
//
// The version owns ct from then on: its segment pages are reclaimed when
// a later write, truncate or drop supersedes it and no snapshot still
// reads it.
func (t *Table) LoadColumnar(ct *colstore.Table) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	switch {
	case ct == nil:
		return fmt.Errorf("sqldb: LoadColumnar into %s: nil columnar table", t.Name)
	case v.rows() != 0:
		return fmt.Errorf("sqldb: LoadColumnar into %s: table holds %d rows, want none", t.Name, v.rows())
	case len(v.keyCols) != 2 || v.unique:
		return fmt.Errorf("sqldb: LoadColumnar into %s: needs a non-unique two-column clustered key", t.Name)
	case !projectionCovers(t, ct):
		return fmt.Errorf("sqldb: LoadColumnar into %s: columnar schema does not cover the table's", t.Name)
	case ct.GroupCol() != v.keyCols[0] || ct.SortCol() != v.keyCols[1]:
		return fmt.Errorf("sqldb: LoadColumnar into %s: segments are not grouped and sorted on the clustered key", t.Name)
	case ct.Pool() != t.pool:
		return fmt.Errorf("sqldb: LoadColumnar into %s: segments live in another buffer pool", t.Name)
	}
	t.publishLocked(v, &tableVersion{
		seq: v.seq + 1, keyCols: v.keyCols,
		treeRows:  ct.NumRows(),
		nextRowID: v.nextRowID + ct.NumRows(), nextIdentity: v.nextIdentity,
		columnar: ct,
	})
	return nil
}

// colPrimary reports whether the version's rows live only in its columnar
// segments (LoadColumnar): no tree, no overlay.
func (v *tableVersion) colPrimary() bool { return v.tree == nil }

// segmentPages lists ct's segment pages, the inventory a version retires
// when it stops referencing ct.
func segmentPages(ct *colstore.Table) []storage.PageID {
	segs := ct.Segments()
	pages := make([]storage.PageID, len(segs))
	for i, m := range segs {
		pages[i] = m.Page
	}
	return pages
}

// materialisedVersion returns the column-primary version v as a row
// version: the same rows, counters and projection, with the tree a bulk
// load of the segments in order would build (rowids ascending in segment
// order). Nothing is published; the caller either publishes a version
// derived from it or frees its tree pages.
func (t *Table) materialisedVersion(v *tableVersion) (*tableVersion, error) {
	tv := TableView{t: t, v: v}
	cur, err := tv.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	l, err := t.newTreeLoad(false)
	if err != nil {
		return nil, err
	}
	var key, data []byte
	rowid := v.nextRowID - v.treeRows
	for cur.Next() {
		row := cur.Row()
		if key, err = tv.appendKey(key[:0], row, rowid); err == nil {
			if data, err = appendRow(data[:0], t.Cols, row); err == nil {
				err = l.add(key, data)
			}
		}
		if err != nil {
			l.abort()
			return nil, err
		}
		rowid++
	}
	if err := cur.Err(); err != nil {
		l.abort()
		return nil, err
	}
	tree, pages, err := l.finish()
	if err != nil {
		return nil, err
	}
	nv := *v
	nv.tree, nv.treePages = tree, pages
	return &nv, nil
}

// segBound is an inclusive bound on the leading n columns of a
// column-primary version's (group, sort) key, each held as its key image:
// the big-endian value of its AppendInt64 / AppendFloat64 encoding, so
// comparing images compares exactly as the row tree compares key bytes.
type segBound struct {
	n int
	k [2]uint64
}

// parseSegBound reads a bound encoded by appendKeyPrefix: per column a
// non-null marker and 8 key bytes. Encoding first and parsing back keeps
// the bound's coercions (an Int on the float column, a Float on the group
// column) exactly the row tree's.
func parseSegBound(prefix []byte) segBound {
	var b segBound
	for b.n < len(b.k) && len(prefix) >= 9 {
		b.k[b.n] = binary.BigEndian.Uint64(prefix[1:9])
		b.n++
		prefix = prefix[9:]
	}
	return b
}

// cmp compares the key (group, sort) against the bound over the bound's n
// leading columns: -1 below it, 0 inside its prefix, +1 above it. A bound
// with n = 0 is unbounded and compares 0 with everything.
func (b segBound) cmp(group, sortKey uint64) int {
	k := [2]uint64{group, sortKey}
	for i := 0; i < b.n; i++ {
		switch {
		case k[i] < b.k[i]:
			return -1
		case k[i] > b.k[i]:
			return 1
		}
	}
	return 0
}

// groupImage is the key image of a group value (AppendInt64's encoding).
func groupImage(g int64) uint64 { return uint64(g) ^ 1<<63 }

// segCursor walks a column-primary version's segments in key order between
// an inclusive lower and upper bound. The directory prunes whole segments
// (binary search on their last key for the start, their first key against
// the end); inside a segment a binary search on the decoded sort column
// finds the first and last row in bounds. The scanner stages one segment
// at a time and re-staging the same page is free, so re-seeks inside a
// segment (a zone sweep's per-window seeks) cost no pool read.
type segCursor struct {
	segs    []colstore.SegmentMeta
	scan    *colstore.Scanner
	sortCol int
	lo, hi  segBound
	next    int  // directory index of the next segment to stage
	ri      int  // current row within the staged segment
	stop    int  // staged rows in [ri, stop) are inside the bounds
	last    bool // the staged segment reaches past hi: no later one is read
	onRow   bool // ri is a current row
}

func newSegCursor(ct *colstore.Table) *segCursor {
	return &segCursor{segs: ct.Segments(), scan: ct.NewScanner(), sortCol: ct.SortCol()}
}

// seek positions the cursor before the first row >= lo, bounded by hi.
// No page is read until the next advance.
func (s *segCursor) seek(lo, hi segBound) {
	s.lo, s.hi = lo, hi
	s.ri, s.stop, s.last, s.onRow = 0, 0, false, false
	s.next = 0
	if lo.n > 0 {
		// Segments ascend in key order, so their last keys do too.
		s.next = sort.Search(len(s.segs), func(i int) bool {
			m := s.segs[i]
			return lo.cmp(groupImage(m.Group), storage.Float64Key(m.MaxSort)) >= 0
		})
	}
}

// advance moves to the next row in bounds and reports whether there is one.
func (s *segCursor) advance() (bool, error) {
	if s.onRow {
		s.ri++
	}
	s.onRow = false
	for s.ri >= s.stop {
		if s.last || s.next >= len(s.segs) {
			return false, nil
		}
		if err := s.stage(s.next); err != nil {
			s.last = true
			return false, err
		}
		s.next++
		s.lo = segBound{} // later segments start above lo
	}
	s.onRow = true
	return true, nil
}

// stage loads segment si and narrows [ri, stop) to its rows inside the
// bounds; a segment starting past hi ends the walk unread.
func (s *segCursor) stage(si int) error {
	m := s.segs[si]
	g := groupImage(m.Group)
	s.ri, s.stop = 0, 0
	if s.hi.cmp(g, storage.Float64Key(m.MinSort)) > 0 {
		s.last = true
		return nil
	}
	if err := s.scan.Load(m); err != nil {
		return err
	}
	sorts := s.scan.Floats(s.sortCol)
	if s.lo.n > 0 {
		s.ri = sort.Search(len(sorts), func(i int) bool {
			return s.lo.cmp(g, storage.Float64Key(sorts[i])) >= 0
		})
	}
	s.stop = len(sorts)
	if s.hi.cmp(g, storage.Float64Key(m.MaxSort)) > 0 {
		s.stop = sort.Search(len(sorts), func(i int) bool {
			return s.hi.cmp(g, storage.Float64Key(sorts[i])) > 0
		})
		s.last = true
	}
	return nil
}

// fill decodes columns [from, to) of the current row into row.
func (s *segCursor) fill(cols []Column, row []Value, from, to int) {
	for ci := from; ci < to; ci++ {
		if cols[ci].Type == TInt {
			row[ci] = Int(s.scan.Ints(ci)[s.ri])
		} else {
			row[ci] = Float(s.scan.Floats(ci)[s.ri])
		}
	}
}
