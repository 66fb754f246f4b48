package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// Column describes one column of a stored table.
type Column struct {
	Name     string
	Type     Type
	Identity bool
}

// Table is a stored table: rows live in a B+tree ordered by the clustered
// key (the declared PRIMARY KEY, a CREATE CLUSTERED INDEX key, or an
// implicit insertion-ordered rowid). Non-unique clustered keys get a rowid
// suffix so equal keys coexist. A column-primary table (LoadColumnar,
// CREATE CLUSTERED COLUMNSTORE INDEX) keeps its rows in column segments
// instead, read in the same clustered order.
//
// A Table is a handle: the name and column schema are immutable, and all
// mutable state lives in one immutable tableVersion published through an
// atomic pointer. Readers load the version once and see frozen storage
// (tree or segments) and row count; writers serialize on the core's
// mutex, build a replacement version off to the side, and publish it with
// a single atomic store. RENAME makes a new handle sharing the same core,
// so in-flight queries keep a coherent (name, rows) pair.
type Table struct {
	Name string
	Cols []Column
	*tableCore
}

// tableCore is the shared mutable heart of a table: all handles produced
// by renames point at the same core.
type tableCore struct {
	pool *storage.Pool
	rec  *storage.Reclaimer

	mu      sync.Mutex // writer lock: one version transition at a time
	version atomic.Pointer[tableVersion]
}

// deltaEntry is one encoded row in a version's write overlay.
type deltaEntry struct {
	key []byte
	val []byte
}

// tableVersion is one immutable snapshot of a table's contents. Every
// field is frozen at publish; writers copy the struct, never mutate it.
//
// The tree is always bulk-built (or the empty single-leaf tree), so
// treePages is a complete page inventory: when the version dies, retiring
// that slice deallocates the whole tree without a walk. The columnar
// segments retire the same way, through their directory. A column-primary
// version has no tree at all: columnar holds its rows, and treeRows counts
// them. Trickled Inserts
// land in delta — a sorted overlay whose keys are provably disjoint from
// the tree's (unique tables reject duplicates; non-unique keys carry a
// monotone rowid suffix) — and merge into a fresh tree once the overlay
// reaches deltaFlushRows or any bulk operation rewrites the table.
type tableVersion struct {
	seq          int64
	keyCols      []int          // indexes into Cols forming the clustered key; empty = rowid heap
	unique       bool           // true only for PRIMARY KEY storage (no rowid suffix)
	tree         *storage.BTree // nil on a column-primary version
	treePages    []storage.PageID
	treeRows     int64
	delta        []deltaEntry
	nextRowID    int64
	nextIdentity int64
	// columnar holds the rows of a column-primary version, its only copy:
	// columnar != nil exactly when tree == nil. scanners caches the idle
	// segment scanners of its cursors.
	columnar *colstore.Table
	scanners *scannerCache
	// dropped, on the empty version a drop or rename-replace publishes
	// (retireContents), is the version the table held when it left the
	// catalog: what a snapshot whose catalog still lists the table reads.
	dropped *tableVersion
}

// rows is the version's total row count.
func (v *tableVersion) rows() int64 { return v.treeRows + int64(len(v.delta)) }

// deltaFlushRows bounds the write overlay: the insert that reaches it
// merges tree+delta into a fresh bulk-built tree. Small enough that scan
// merge overhead stays negligible, large enough that a trickle load
// rewrites the table 1/512th as often as per-row tree inserts would.
const deltaFlushRows = 512

func newTable(pool *storage.Pool, rec *storage.Reclaimer, name string, cols []Column, keyCols []int, unique bool) (*Table, error) {
	tree, err := storage.NewBTree(pool)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Cols: cols, tableCore: &tableCore{pool: pool, rec: rec}}
	t.version.Store(&tableVersion{
		seq: 1, keyCols: keyCols, unique: unique,
		tree: tree, treePages: []storage.PageID{tree.Root()},
		nextRowID: 1, nextIdentity: 1,
	})
	return t, nil
}

// renamed returns a new handle over the same core. The old handle stays
// valid: queries planned against it keep reading (and naming) the table
// they bound.
func (t *Table) renamed(name string) *Table {
	return &Table{Name: name, Cols: t.Cols, tableCore: t.tableCore}
}

// publishLocked installs nv as the current version and retires what of
// the old version nv no longer references: the tree's pages when the
// transition replaced the tree (delta-only transitions keep it), the
// segment pages when it replaced the segments. Caller holds t.mu.
func (t *Table) publishLocked(old, nv *tableVersion) {
	t.version.Store(nv)
	if nv.tree != old.tree {
		t.rec.Retire(old.treePages)
	}
	if old.columnar != nil && nv.columnar != old.columnar {
		t.rec.Retire(segmentPages(old.columnar))
	}
}

// ColIndex returns the index of the named column (case-insensitive), or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// View returns the table's current version as a read view. The view is
// O(1) to take, never blocks writers, and stays internally consistent
// (tree or segments, row count, key layout) no matter what is published
// afterwards. Pages of a superseded version are only reclaimed once every
// guard taken before the supersession is released; cursors opened through
// Table methods carry their own guard, while Snapshot-scoped views ride
// the snapshot's.
func (t *Table) View() TableView {
	return TableView{t: t, v: t.version.Load()}
}

// AcquireView returns the current view pinned by a reclaimer guard, for
// callers that hold a view across multiple cursor lifetimes (the zone
// sweep sources). Call release exactly once when done.
func (t *Table) AcquireView() (TableView, func()) {
	g := t.rec.Enter()
	tv := t.View()
	return tv, func() { g.Release() }
}

// NumRows returns the current row count.
func (t *Table) NumRows() int64 { return t.version.Load().rows() }

// Columnar returns the segments holding a column-primary table's rows, or
// nil on a row table.
func (t *Table) Columnar() *colstore.Table { return t.version.Load().columnar }

// TableView is one immutable version of a table, the object reads plan
// and execute against. The zero value is invalid; obtain one from
// Table.View, Table.AcquireView, or Snapshot.View.
type TableView struct {
	t *Table
	v *tableVersion
}

// Table returns the handle the view was taken from.
func (tv TableView) Table() *Table { return tv.t }

// NumRows returns the view's row count.
func (tv TableView) NumRows() int64 { return tv.v.rows() }

// Columnar returns the segments holding a column-primary view's rows, or
// nil on a row view.
func (tv TableView) Columnar() *colstore.Table { return tv.v.columnar }

// KeyCols returns the view's clustered-key column indexes. Read-only.
func (tv TableView) KeyCols() []int { return tv.v.keyCols }

// Unique reports whether the view's clustered key is a PRIMARY KEY.
func (tv TableView) Unique() bool { return tv.v.unique }

// Seq returns the version sequence number; each publish increments it.
func (tv TableView) Seq() int64 { return tv.v.seq }

// appendKey builds the clustered key for a row into a caller-owned
// buffer. Each key column is encoded with a null marker so NULLs order
// first; non-unique keys append the rowid.
func (tv TableView) appendKey(key []byte, row []Value, rowid int64) ([]byte, error) {
	t, v := tv.t, tv.v
	for _, ci := range v.keyCols {
		val := row[ci]
		if val.IsNull() {
			key = append(key, 0)
			continue
		}
		key = append(key, 1)
		switch t.Cols[ci].Type {
		case TInt:
			iv, err := val.AsInt()
			if err != nil {
				return nil, err
			}
			key = storage.AppendInt64(key, iv)
		case TFloat:
			fv, err := val.AsFloat()
			if err != nil {
				return nil, err
			}
			key = storage.AppendFloat64(key, fv)
		case TString:
			key = storage.AppendString(key, val.S)
		case TBool:
			key = storage.AppendBool(key, val.B)
		default:
			return nil, fmt.Errorf("sqldb: cannot key column of type %s", t.Cols[ci].Type)
		}
	}
	if !v.unique || len(v.keyCols) == 0 {
		key = storage.AppendInt64(key, rowid)
	}
	return key, nil
}

// keyPrefixFor encodes a bound on the leading key column for range scans.
func (tv TableView) keyPrefixFor(v Value) ([]byte, error) {
	return tv.appendKeyPrefix(nil, []Value{v})
}

// appendKeyPrefix encodes bounds on the leading len(vals) key columns into
// a caller-owned buffer, so scan loops that re-seek per zone can encode
// bounds without allocating.
func (tv TableView) appendKeyPrefix(key []byte, vals []Value) ([]byte, error) {
	t, v := tv.t, tv.v
	if len(v.keyCols) < len(vals) {
		return nil, fmt.Errorf("sqldb: table %s clustered key has %d columns, prefix needs %d",
			t.Name, len(v.keyCols), len(vals))
	}
	for i, val := range vals {
		ci := v.keyCols[i]
		key = append(key, 1)
		switch t.Cols[ci].Type {
		case TInt:
			iv, err := val.AsInt()
			if err != nil {
				return nil, err
			}
			key = storage.AppendInt64(key, iv)
		case TFloat:
			fv, err := val.AsFloat()
			if err != nil {
				return nil, err
			}
			key = storage.AppendFloat64(key, fv)
		case TString:
			key = storage.AppendString(key, val.S)
		default:
			return nil, fmt.Errorf("sqldb: unsupported range-scan key type %s", t.Cols[ci].Type)
		}
	}
	return key, nil
}

// encodeRow serialises all columns: a null bitmap followed by the non-null
// values (zigzag varint ints, 8-byte floats, uvarint-length strings,
// 1-byte bools).
func encodeRow(cols []Column, row []Value) ([]byte, error) {
	return appendRow(make([]byte, 0, (len(cols)+7)/8+len(cols)*8), cols, row)
}

// appendRow is encodeRow into a caller-owned buffer (see appendKey).
func appendRow(buf []byte, cols []Column, row []Value) ([]byte, error) {
	if len(row) != len(cols) {
		return nil, fmt.Errorf("sqldb: row has %d values for %d columns", len(row), len(cols))
	}
	nb := (len(cols) + 7) / 8
	base := len(buf)
	for i := 0; i < nb; i++ {
		buf = append(buf, 0)
	}
	for i, v := range row {
		if v.IsNull() {
			buf[base+i/8] |= 1 << (i % 8)
		}
	}
	var scratch [binary.MaxVarintLen64]byte
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if v.NeedsCoerce(cols[i].Type) {
			var err error
			v, err = v.CoerceTo(cols[i].Type)
			if err != nil {
				return nil, fmt.Errorf("sqldb: column %s: %w", cols[i].Name, err)
			}
		}
		switch cols[i].Type {
		case TInt:
			n := binary.PutVarint(scratch[:], v.I)
			buf = append(buf, scratch[:n]...)
		case TFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			buf = append(buf, b[:]...)
		case TString:
			n := binary.PutUvarint(scratch[:], uint64(len(v.S)))
			buf = append(buf, scratch[:n]...)
			buf = append(buf, v.S...)
		case TBool:
			if v.B {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		default:
			return nil, fmt.Errorf("sqldb: cannot store type %s", cols[i].Type)
		}
	}
	return buf, nil
}

// decodeCols decodes columns [from, to) of an encodeRow payload into row,
// resuming at byte offset pos (pass (len(cols)+7)/8, the end of the null
// bitmap, with from = 0). It returns the offset after column to-1 so a
// later call can decode the remaining columns of the same row.
func decodeCols(cols []Column, data []byte, row []Value, from, to, pos int) (int, error) {
	for i := from; i < to; i++ {
		c := cols[i]
		if data[i/8]&(1<<(i%8)) != 0 {
			row[i] = Null()
			continue
		}
		switch c.Type {
		case TInt:
			v, n := binary.Varint(data[pos:])
			if n <= 0 {
				return pos, fmt.Errorf("sqldb: corrupt int in column %s", c.Name)
			}
			pos += n
			row[i] = Int(v)
		case TFloat:
			if pos+8 > len(data) {
				return pos, fmt.Errorf("sqldb: corrupt float in column %s", c.Name)
			}
			row[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
			pos += 8
		case TString:
			l, n := binary.Uvarint(data[pos:])
			if n <= 0 || pos+n+int(l) > len(data) {
				return pos, fmt.Errorf("sqldb: corrupt string in column %s", c.Name)
			}
			pos += n
			row[i] = String(string(data[pos : pos+int(l)]))
			pos += int(l)
		case TBool:
			if pos >= len(data) {
				return pos, fmt.Errorf("sqldb: corrupt bool in column %s", c.Name)
			}
			row[i] = Bool(data[pos] != 0)
			pos++
		}
	}
	return pos, nil
}

// deltaSeek returns the index of the first overlay entry with key >= start.
func deltaSeek(d []deltaEntry, start []byte) int {
	if len(start) == 0 {
		return 0
	}
	return sort.Search(len(d), func(i int) bool { return bytes.Compare(d[i].key, start) >= 0 })
}

// deltaHas reports whether the overlay holds key exactly.
func deltaHas(d []deltaEntry, key []byte) bool {
	i := deltaSeek(d, key)
	return i < len(d) && bytes.Equal(d[i].key, key)
}

// insertDelta returns the overlay with (key, val) inserted in order. The
// tail-append fast path may extend the previous version's backing array
// in place: readers of published versions only index [:their length], the
// new entry lands at [length], and the version publish provides the
// happens-before edge — disjoint memory, race-free. Mid-slice inserts
// copy to a fresh array.
func insertDelta(d []deltaEntry, key, val []byte) []deltaEntry {
	e := deltaEntry{key: key, val: val}
	if n := len(d); n == 0 || bytes.Compare(d[n-1].key, key) < 0 {
		return append(d, e)
	}
	idx := deltaSeek(d, key)
	nd := make([]deltaEntry, len(d)+1)
	copy(nd, d[:idx])
	nd[idx] = e
	copy(nd[idx+1:], d[idx:])
	return nd
}

// Insert adds a row (values in schema order; Identity columns auto-fill
// when NULL). It enforces PRIMARY KEY uniqueness. The row lands in the
// new version's sorted write overlay; once the overlay reaches
// deltaFlushRows the insert also merges overlay and tree into a fresh
// bulk-built tree, so trickle loads stay amortised-linear while published
// trees remain immutable.
func (t *Table) Insert(row []Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	if len(row) != len(t.Cols) {
		return fmt.Errorf("sqldb: INSERT into %s has %d values for %d columns", t.Name, len(row), len(t.Cols))
	}
	vals := make([]Value, len(row))
	copy(vals, row)
	nextIdentity := v.nextIdentity
	for i, c := range t.Cols {
		if c.Identity && vals[i].IsNull() {
			vals[i] = Int(nextIdentity)
			nextIdentity++
		}
		if !vals[i].NeedsCoerce(c.Type) {
			continue
		}
		var err error
		vals[i], err = vals[i].CoerceTo(c.Type)
		if err != nil {
			return fmt.Errorf("sqldb: table %s column %s: %w", t.Name, c.Name, err)
		}
	}
	rowid := v.nextRowID
	key, err := TableView{t: t, v: v}.appendKey(make([]byte, 0, 32), vals, rowid)
	if err != nil {
		return err
	}
	if v.unique { // never column-primary: LoadColumnar refuses unique keys
		if _, exists, err := v.tree.Get(key); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("sqldb: duplicate primary key in table %s", t.Name)
		}
		if deltaHas(v.delta, key) {
			return fmt.Errorf("sqldb: duplicate primary key in table %s", t.Name)
		}
	}
	data, err := encodeRow(t.Cols, vals)
	if err != nil {
		return err
	}
	base := v
	if v.colPrimary() {
		// The overlay merges against a tree: build it from the segments.
		// One overlay row never reaches deltaFlushRows, so that tree is
		// the one published below.
		if base, err = t.materialisedVersion(v); err != nil {
			return err
		}
	}
	nv := *base
	nv.seq++
	nv.nextRowID = v.nextRowID + 1
	nv.nextIdentity = nextIdentity
	nv.delta = insertDelta(v.delta, key, data)
	if len(nv.delta) >= deltaFlushRows {
		if fv, err := t.flushedVersion(&nv); err == nil {
			t.publishLocked(v, fv)
			return nil
		}
		// Flush failed (an injected allocation fault, say): the insert
		// itself succeeded, so publish the overlay version and let a later
		// write retry the merge.
	}
	t.publishLocked(v, &nv)
	return nil
}

// TableCursor streams one view's rows in clustered-key order, merging the
// version's bulk-built tree with its sorted write overlay (their keys are
// disjoint, so the merge is a pick-smaller walk with no shadowing logic).
// On a column-primary version it walks the segments instead (segCursor),
// in the same order.
// Columns decode lazily: Next materialises only the leading eager columns
// (all of them unless SetEagerColumns narrowed the set) and Row completes
// the rest on demand, so scan loops that reject most rows on a key-side
// prefix never pay for the tail of the row.
type TableCursor struct {
	t       *Table
	v       *tableVersion
	cur     *storage.Cursor // nil on a column-primary version
	seg     *segCursor      // column-primary versions only
	delta   []deltaEntry    // the view's overlay; di indexes the next candidate
	di      int
	onDelta bool           // current row came from the overlay
	guard   *storage.Guard // held for cursors opened via Table methods; released by Close
	endKey  []byte         // scan stops when key prefix exceeds endKey (inclusive bound)
	row     []Value
	raw     []byte // current row payload (aliases the storage cursor's buffer or an overlay entry)
	pos     int    // decode offset into raw
	decoded int    // leading columns of raw already decoded into row
	wide    int    // row slots possibly holding decoded values (>= decoded)
	eager   int    // columns Next decodes per row; 0 = all
	started bool
	err     error
}

// Scan returns a cursor over the whole view.
func (tv TableView) Scan() (*TableCursor, error) { return tv.openCursor(nil, nil) }

// Scan returns a cursor over the table's current version.
func (t *Table) Scan() (*TableCursor, error) {
	g := t.rec.Enter()
	c, err := t.View().Scan()
	if err != nil {
		g.Release()
		return nil, err
	}
	c.guard = g
	return c, nil
}

// RangeScan returns a cursor over rows whose leading clustered-key column is
// within [lo, hi] (either bound may be omitted by passing a NULL Value).
func (tv TableView) RangeScan(lo, hi Value) (*TableCursor, error) {
	var start []byte
	if !lo.IsNull() {
		p, err := tv.keyPrefixFor(lo)
		if err != nil {
			return nil, err
		}
		start = p
	}
	var end []byte
	if !hi.IsNull() {
		p, err := tv.keyPrefixFor(hi)
		if err != nil {
			return nil, err
		}
		end = p
	}
	return tv.openCursor(start, end)
}

// openCursor returns a cursor over the view's rows from the first whose
// key is >= the encoded prefix start (nil: the first row) up to the
// inclusive encoded prefix end (nil: no bound).
func (tv TableView) openCursor(start, end []byte) (*TableCursor, error) {
	if tv.v.colPrimary() {
		c := &TableCursor{t: tv.t, v: tv.v, seg: newSegCursor(tv.v), endKey: end}
		c.seg.seek(parseSegBound(start), parseSegBound(end))
		return c, nil
	}
	c, err := tv.v.tree.Seek(start)
	if err != nil {
		return nil, err
	}
	return &TableCursor{
		t: tv.t, v: tv.v, cur: c, endKey: end,
		delta: tv.v.delta, di: deltaSeek(tv.v.delta, start),
	}, nil
}

// RangeScan returns a range cursor over the table's current version.
func (t *Table) RangeScan(lo, hi Value) (*TableCursor, error) {
	g := t.rec.Enter()
	c, err := t.View().RangeScan(lo, hi)
	if err != nil {
		g.Release()
		return nil, err
	}
	c.guard = g
	return c, nil
}

// RangeScanPrefix returns a cursor over rows whose leading clustered-key
// columns fall within [lo, hi] componentwise: the zone join's
// (zoneID = z AND ra BETWEEN a-x AND a+x) access path.
func (tv TableView) RangeScanPrefix(lo, hi []Value) (*TableCursor, error) {
	start, err := tv.appendKeyPrefix(nil, lo)
	if err != nil {
		return nil, err
	}
	end, err := tv.appendKeyPrefix(nil, hi)
	if err != nil {
		return nil, err
	}
	return tv.openCursor(start, end)
}

// RangeScanPrefix returns a prefix-range cursor over the table's current
// version.
func (t *Table) RangeScanPrefix(lo, hi []Value) (*TableCursor, error) {
	g := t.rec.Enter()
	c, err := t.View().RangeScanPrefix(lo, hi)
	if err != nil {
		g.Release()
		return nil, err
	}
	c.guard = g
	return c, nil
}

// Next advances and reports whether a row is available via Row. The
// underlying storage cursor advances lazily — on the following Next, not
// eagerly — so the raw page bytes stay addressable while the caller
// inspects the row.
func (c *TableCursor) Next() bool {
	if c.seg != nil {
		return c.nextSeg()
	}
	if c.err != nil {
		return false
	}
	if c.started {
		if c.onDelta {
			c.di++
			c.onDelta = false
		} else if c.cur.Valid() {
			if err := c.cur.Next(); err != nil {
				c.err = err
				return false
			}
		} else if c.di >= len(c.delta) {
			return false
		}
	}
	c.started = true
	// Drop the previous row's payload now: the storage cursor's buffer has
	// been overwritten, so a Row() call after the scan stops must not
	// decode the out-of-range record's bytes at the old row's offsets.
	c.raw = nil
	c.decoded = 0
	treeOK := c.cur.Valid()
	deltaOK := c.di < len(c.delta)
	if !treeOK && !deltaOK {
		return false
	}
	// Pick the smaller key; tree and overlay keys are disjoint.
	useDelta := deltaOK && (!treeOK || bytes.Compare(c.delta[c.di].key, c.cur.Key()) < 0)
	var key []byte
	if useDelta {
		key = c.delta[c.di].key
	} else {
		key = c.cur.Key()
	}
	if c.endKey != nil {
		// Stop once the key's prefix exceeds the inclusive end bound.
		prefix := key
		if len(prefix) > len(c.endKey) {
			prefix = prefix[:len(c.endKey)]
		}
		if string(prefix) > string(c.endKey) {
			return false
		}
	}
	c.onDelta = useDelta
	if c.row == nil {
		c.row = make([]Value, len(c.t.Cols))
	}
	if useDelta {
		c.raw = c.delta[c.di].val
	} else {
		c.raw = c.cur.Value()
	}
	nb := (len(c.t.Cols) + 7) / 8
	if len(c.raw) < nb {
		c.err = fmt.Errorf("sqldb: row data shorter than null bitmap")
		return false
	}
	c.pos = nb
	c.decoded = 0
	return c.decodeTo(c.eagerCols())
}

// nextSeg is Next on a column-primary version: advance the segment walk
// and decode the eager columns from the staged column arrays.
func (c *TableCursor) nextSeg() bool {
	if c.err != nil {
		return false
	}
	c.decoded = 0
	ok, err := c.seg.advance()
	if err != nil {
		c.err = err
	}
	if !ok {
		return false
	}
	if c.row == nil {
		c.row = make([]Value, len(c.t.Cols))
	}
	return c.decodeTo(c.eagerCols())
}

// eagerCols is the column count Next decodes per row.
func (c *TableCursor) eagerCols() int {
	if c.eager <= 0 || c.eager > len(c.t.Cols) {
		return len(c.t.Cols)
	}
	return c.eager
}

// decodeTo extends the decoded prefix of the current row to n columns.
func (c *TableCursor) decodeTo(n int) bool {
	if c.err != nil || (c.raw == nil && (c.seg == nil || !c.seg.onRow)) {
		// No current row (Next not yet called, or the scan ended).
		return false
	}
	if n <= c.decoded {
		return true
	}
	if c.seg != nil {
		c.seg.fill(c.t.Cols, c.row, c.decoded, n)
	} else {
		pos, err := decodeCols(c.t.Cols, c.raw, c.row, c.decoded, n, c.pos)
		if err != nil {
			// Null the undecoded tail so a caller that ignores the error
			// does not see the previous row's values in those columns.
			for i := c.decoded; i < len(c.t.Cols); i++ {
				c.row[i] = Null()
			}
			c.err = err
			return false
		}
		c.pos = pos
	}
	c.decoded = n
	c.wide = max(c.wide, n)
	return true
}

// Decoded returns the current row at full width with only what Next
// decoded: the eager prefix (every column unless SetEagerColumns narrowed
// it). Slots past the prefix are NULL — never a value left from an
// earlier row — so a scan that reads only a statement's column prefix can
// hand the row on without paying for the tail. The slice is reused by
// the next call to Next.
func (c *TableCursor) Decoded() []Value {
	if c.wide > c.decoded {
		clear(c.row[c.decoded:c.wide])
		c.wide = c.decoded
	}
	return c.row
}

// Row returns the current row, fully decoded. The slice is reused by the
// next call to Next; callers that retain rows must copy them.
func (c *TableCursor) Row() []Value {
	c.decodeTo(len(c.t.Cols))
	return c.row
}

// SetEagerColumns limits the columns Next decodes per row to the first n;
// 0 restores full decode.
func (c *TableCursor) SetEagerColumns(n int) { c.eager = n }

// Err returns the first error encountered.
func (c *TableCursor) Err() error { return c.err }

// Close releases the cursor: storage pins, a segment scanner, and the
// reclaimer guard pinning its version. Idempotent.
func (c *TableCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
	}
	if c.seg != nil {
		c.seg.close()
	}
	if c.guard != nil {
		c.guard.Release()
		c.guard = nil
	}
}

// retireContents publishes an empty version so a dropped (or
// rename-replaced) table's pages reclaim once every snapshot that could
// reach them closes. A stale handle used after the drop reads an empty
// table — never freed pages — because readers guard-then-load and
// retirement only ever accompanies a version publish. A snapshot whose
// catalog still lists the table reads the dropped contents instead
// (Snapshot.View): its guard predates the retirement.
func (t *Table) retireContents() { _ = t.truncate(true) }

// Truncate removes all rows. The old version's tree pages are retired and
// reclaimed once no snapshot still reads them.
func (t *Table) Truncate() error { return t.truncate(false) }

func (t *Table) truncate(drop bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	tree, err := storage.NewBTree(t.pool)
	if err != nil {
		return err
	}
	nv := &tableVersion{
		seq: v.seq + 1, keyCols: v.keyCols, unique: v.unique,
		tree: tree, treePages: []storage.PageID{tree.Root()},
		nextRowID: 1, nextIdentity: 1,
	}
	if drop {
		nv.dropped = v
	}
	t.publishLocked(v, nv)
	return nil
}

// ReplaceAll atomically swaps the table contents for the given rows; used
// by UPDATE/DELETE rewrites and CREATE CLUSTERED INDEX rebuilds. The new
// contents bulk-load bottom-up: rowids restart at 1 and are assigned in
// slice order, and identity values continue the table's sequence, as a
// DELETE of every row followed by per-row Inserts would — but the publish happens only after the replacement tree is fully built,
// so a failed rewrite (e.g. an UPDATE that makes a primary key collide)
// leaves the table untouched, and in-flight readers keep the version they
// started with either way.
func (t *Table) ReplaceAll(rows [][]Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.replaceAllLocked(rows)
}

// replaceAllLocked is ReplaceAll for callers already holding t.mu (the
// UPDATE/DELETE executor, which must scan and replace under one writer
// critical section to stay atomic against other writers).
func (t *Table) replaceAllLocked(rows [][]Value) error {
	v := t.version.Load()
	nv, err := t.rebuiltVersion(v, v.keyCols, v.unique, len(rows), func(i int) []Value { return rows[i] })
	if err != nil {
		return err
	}
	t.publishLocked(v, nv)
	return nil
}

// Recluster rebuilds the table ordered by the named key columns (CREATE
// CLUSTERED INDEX). The new key is non-unique (rowid suffix). Key layout
// and tree change together in one published version, so no reader can
// see the new ordering described by the old key columns or vice versa.
func (t *Table) Recluster(keyCols []string) error {
	idx, err := t.colIndexes(keyCols)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	rows, err := t.scanRows(v)
	if err != nil {
		return err
	}
	nv, err := t.rebuiltVersion(v, idx, false, len(rows), func(i int) []Value { return rows[i] })
	if err != nil {
		return err
	}
	t.publishLocked(v, nv)
	return nil
}

// colIndexes resolves column names to schema indexes.
func (t *Table) colIndexes(names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		if idx[i] = t.ColIndex(name); idx[i] < 0 {
			return nil, fmt.Errorf("sqldb: no column %q in table %s", name, t.Name)
		}
	}
	return idx, nil
}

// scanRows copies every row of version v in scan order.
func (t *Table) scanRows(v *tableVersion) ([][]Value, error) {
	c, err := (TableView{t: t, v: v}).Scan()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var rows [][]Value
	for c.Next() {
		rows = append(rows, append([]Value(nil), c.Row()...))
	}
	return rows, c.Err()
}
