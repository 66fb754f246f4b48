package sqldb

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

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
// same rows would have built — and proceeds as on any row table. Two
// entry points make one: LoadColumnar publishes segments built elsewhere
// (the Zone table spZone builds), and CREATE CLUSTERED COLUMNSTORE INDEX
// (reclusterColumnar) rebuilds a table's own rows as segments.

// LoadColumnar publishes ct as the rows of the empty table t: the new
// version keeps no row B+tree, and every read is served from ct's segment
// pages. It is the bulk load of a table that is only ever scanned in
// clustered order (the Zone table spZone builds), at the cost of one
// segment build instead of a segment build plus a tree build.
//
// t must be empty, with a non-unique clustered key of exactly two columns:
// an integer (the segment group) and a float (the in-group sort). ct must
// hold t's columnar schema (columnarSchema), be grouped by the first key
// column and sorted by the second, and live in t's buffer pool. Rowids
// follow segment order, so tied keys scan in the order they were added to
// the builder.
//
// The version owns ct from then on: its segment pages are reclaimed when
// a later write, truncate or drop supersedes it and no snapshot still
// reads it.
func (t *Table) LoadColumnar(ct *colstore.Table) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	sch, schErr := columnarSchema(t)
	switch {
	case ct == nil:
		return fmt.Errorf("sqldb: LoadColumnar into %s: nil columnar table", t.Name)
	case v.rows != 0:
		return fmt.Errorf("sqldb: LoadColumnar into %s: table holds %d rows, want none", t.Name, v.rows)
	case len(v.keyCols) != 2 || v.unique:
		return fmt.Errorf("sqldb: LoadColumnar into %s: needs a non-unique two-column clustered key", t.Name)
	case schErr != nil || !sch.Equal(ct.Schema()):
		return fmt.Errorf("sqldb: LoadColumnar into %s: columnar schema does not cover the table's", t.Name)
	case ct.GroupCol() != v.keyCols[0] || ct.SortCol() != v.keyCols[1]:
		return fmt.Errorf("sqldb: LoadColumnar into %s: segments are not grouped and sorted on the clustered key", t.Name)
	case ct.Pool() != t.pool:
		return fmt.Errorf("sqldb: LoadColumnar into %s: segments live in another buffer pool", t.Name)
	}
	t.publishColumnarLocked(v, v.keyCols, v.nextRowID, ct)
	return nil
}

// reclusterColumnar rebuilds the table column-primary, clustered on
// keyCols: CREATE CLUSTERED COLUMNSTORE INDEX, SQL Server's name for a
// columnstore that is the table's primary storage. The key must be an
// integer column (the segment group) then a float column (the in-group
// sort); every column must be numeric and no value NULL, since segments
// pack 8-byte values only; and a PRIMARY KEY table keeps its unique tree.
// Rows order as Recluster orders them — by the new key, ties in the
// current scan order, rowids restarting at 1 — and the segments publish
// in one version with no tree, as LoadColumnar publishes them. A refused
// or failed conversion publishes nothing.
func (t *Table) reclusterColumnar(keyCols []string) error {
	idx, err := t.colIndexes(keyCols)
	if err != nil {
		return err
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("sqldb: CREATE CLUSTERED COLUMNSTORE INDEX on %s: "+format, append([]any{t.Name}, args...)...)
	}
	if len(idx) != 2 || t.Cols[idx[0]].Type != TInt || t.Cols[idx[1]].Type != TFloat {
		return fail("the key must be (integer group, float sort) columns, got (%s)", strings.Join(keyCols, ", "))
	}
	sch, err := columnarSchema(t)
	if err != nil {
		return fail("%v", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	if v.unique {
		return fail("a PRIMARY KEY table keeps its row tree")
	}
	rows, err := t.scanRows(v)
	if err != nil {
		return err
	}
	for _, row := range rows {
		for ci, val := range row {
			if val.IsNull() {
				return fail("column %s holds NULL", t.Cols[ci].Name)
			}
		}
	}
	g, s := idx[0], idx[1]
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i][g].I != rows[j][g].I {
			return rows[i][g].I < rows[j][g].I
		}
		return storage.Float64Key(rows[i][s].F) < storage.Float64Key(rows[j][s].F)
	})
	b, err := colstore.NewBuilder(t.pool, sch, g, s)
	if err != nil {
		return err
	}
	var ints []int64
	var floats []float64
	for _, row := range rows {
		ints, floats = ints[:0], floats[:0]
		for ci, c := range t.Cols {
			if c.Type == TInt {
				ints = append(ints, row[ci].I)
			} else {
				floats = append(floats, row[ci].F)
			}
		}
		if err := b.Add(ints, floats); err != nil {
			return err
		}
	}
	ct, err := b.Finish()
	if err != nil {
		return err
	}
	t.publishColumnarLocked(v, idx, 1, ct)
	return nil
}

// columnarSchema is the segment schema holding t's rows column for column:
// the same names in order, Int64 for integer and Float64 for float
// columns. A table with a column of any other type has none.
func columnarSchema(t *Table) (colstore.Schema, error) {
	sch := make(colstore.Schema, len(t.Cols))
	for i, c := range t.Cols {
		switch c.Type {
		case TInt:
			sch[i] = colstore.Column{Name: c.Name, Kind: colstore.Int64}
		case TFloat:
			sch[i] = colstore.Column{Name: c.Name, Kind: colstore.Float64}
		default:
			return nil, fmt.Errorf("column %s has non-numeric type %s", c.Name, c.Type)
		}
	}
	return sch, nil
}

// publishColumnarLocked publishes ct as the rows of a new column-primary
// version clustered on keyCols (ct's group and sort columns), rowids
// ascending from firstRowID in segment order. What of v the new version
// no longer references retires. Caller holds t.mu.
func (t *Table) publishColumnarLocked(v *tableVersion, keyCols []int, firstRowID int64, ct *colstore.Table) {
	t.publishLocked(v, &tableVersion{
		seq: v.seq + 1, keyCols: keyCols,
		rows:      ct.NumRows(),
		nextRowID: firstRowID + ct.NumRows(), nextIdentity: v.nextIdentity,
		columnar: ct, scanners: new(scannerCache),
	})
}

// colPrimary reports whether the version's rows live only in its columnar
// segments, with no tree.
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
// version: the same rows and counters, held in the tree a bulk load of the
// segments in order would build (rowids ascending in segment order), and
// no segments. Nothing is published; the caller either publishes a version
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
	rowid := v.nextRowID - v.rows
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
	nv.columnar, nv.scanners = nil, nil
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

// scannerCache holds a column-primary version's idle segment scanners. A
// cursor takes one when it opens and gives it back when it closes, so the
// per-probe range scans of a zone search reuse one page copy and one set
// of column arrays instead of allocating their own. The cache rides the
// version, so no scanner outlives the segment pages it reads. A reused
// scanner may still stage the segment it read last; segments never
// change, so reading that one again skips the pool, as a re-seek inside
// one cursor does.
type scannerCache struct {
	mu   sync.Mutex
	idle []*colstore.Scanner
}

// get returns an idle scanner over ct, or a new one.
func (c *scannerCache) get(ct *colstore.Table) *colstore.Scanner {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.idle); n > 0 {
		s := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return s
	}
	return ct.NewScanner()
}

// put returns a scanner got from c.
func (c *scannerCache) put(s *colstore.Scanner) {
	c.mu.Lock()
	c.idle = append(c.idle, s)
	c.mu.Unlock()
}

// segCursor walks a column-primary version's segments in key order between
// an inclusive lower and upper bound. The directory prunes whole segments
// (binary search on their last key for the start, their first key against
// the end); inside a segment a binary search on the decoded sort column
// finds the first and last row in bounds. The scanner stages one segment
// at a time and re-staging the same page is free, so re-seeks inside a
// segment (a zone sweep's per-window seeks) cost no pool read.
type segCursor struct {
	segs    []colstore.SegmentMeta
	cache   *scannerCache
	scan    *colstore.Scanner // nil once closed
	sortCol int
	lo, hi  segBound
	next    int  // directory index of the next segment to stage
	ri      int  // current row within the staged segment
	stop    int  // staged rows in [ri, stop) are inside the bounds
	last    bool // the staged segment reaches past hi: no later one is read
	onRow   bool // ri is a current row
}

func newSegCursor(v *tableVersion) *segCursor {
	ct := v.columnar
	return &segCursor{segs: ct.Segments(), cache: v.scanners, scan: v.scanners.get(ct), sortCol: ct.SortCol()}
}

// close gives the scanner back to the version's cache and ends the walk.
func (s *segCursor) close() {
	if s.scan != nil {
		s.cache.put(s.scan)
		s.scan = nil
	}
	s.ri, s.stop, s.onRow, s.last = 0, 0, false, true
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
