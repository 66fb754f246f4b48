package sqldb

import (
	"bytes"
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Bulk-load path, the only way rows reach a table: rows are encoded once
// and fed page-at-a-time to storage.BulkLoader, and every write publishes
// one fully bulk-built tree. While the encoded keys ascend they stream
// straight into the loader; only what follows the first inversion is
// buffered and sorted. This is the MyDB-style batch ingest the paper's
// workload is made of (spImportGalaxy, spZone rebuilds, the k-correction
// load): bulk load first, query after.

// sortedRunBytes caps one in-memory run of the SortedRunBuilder before it
// is sealed (sorted and set aside). Sealing keeps individual sorts short
// and bounds the cost of ingesting mostly-sorted input; sealed runs merge
// back into one stream at load time.
const sortedRunBytes = 16 << 20

// kvRef locates one encoded pair inside its run's slab. Offsets stay valid
// as the slab grows because append copies the prefix unchanged.
type kvRef struct {
	off        int
	klen, vlen int
}

// sortedRun is a sealed, key-sorted batch of encoded pairs.
type sortedRun struct {
	slab     []byte
	ents     []kvRef
	inverted bool // some pair arrived with a key below its predecessor's
}

func (r *sortedRun) key(i int) []byte {
	e := r.ents[i]
	return r.slab[e.off : e.off+e.klen]
}

func (r *sortedRun) value(i int) []byte {
	e := r.ents[i]
	return r.slab[e.off+e.klen : e.off+e.klen+e.vlen]
}

func (r *sortedRun) sort() {
	if !r.inverted {
		return // arrived in order: a MyDB append, a merge of presorted rows
	}
	// Stable, so equal keys keep insertion order within a run (Emit's
	// contract; the cross-run heap breaks ties on run sequence).
	sort.SliceStable(r.ents, func(a, b int) bool {
		return bytes.Compare(r.key(a), r.key(b)) < 0
	})
}

// SortedRunBuilder buffers encoded (key, value) pairs, sorts them by key,
// and spills oversized batches into sealed runs, so bulk-load callers need
// not pre-sort their rows. Emit merges the runs back into one ascending
// stream — the sort half of a bulk CREATE CLUSTERED INDEX.
type SortedRunBuilder struct {
	runs   []*sortedRun
	cur    *sortedRun
	n      int
	expect int // pairs the caller announced; 0 = unknown
}

// NewSortedRunBuilder returns an empty builder for about expect pairs (0 =
// unknown). Every bulk load knows its row count, so each run's slab and
// entry table are allocated once — from the width of the run's first pair
// times the pairs still expected — instead of by append growth, which
// re-copies a multi-megabyte slab a dozen times on its way up. One
// reservation never exceeds one run (sortedRunBytes), whatever expect says,
// and a wrong guess (wider rows later, more pairs than announced) only
// falls back to append growth.
func NewSortedRunBuilder(expect int) *SortedRunBuilder {
	return &SortedRunBuilder{cur: &sortedRun{}, expect: expect}
}

// reserve sizes the empty current run for the pairs still expected, taking
// the pair about to be added as the typical one.
func (b *SortedRunBuilder) reserve(pairBytes int) {
	pairs := b.expect - b.n
	if pairs <= 0 || pairBytes == 0 {
		return
	}
	// A run seals with the pair that takes it to sortedRunBytes.
	if most := sortedRunBytes/pairBytes + 1; pairs > most {
		pairs = most
	}
	// An eighth of headroom: a load's first row carries its smallest rowid
	// and identity, and varint columns widen by a byte or two from there.
	// Undershooting by that little would cost a copy of the whole slab.
	slab := pairs * (pairBytes + pairBytes/8)
	if slab > sortedRunBytes+pairBytes {
		slab = sortedRunBytes + pairBytes
	}
	b.cur.slab = make([]byte, 0, slab)
	b.cur.ents = make([]kvRef, 0, pairs)
}

// Add buffers one pair (both slices are copied).
func (b *SortedRunBuilder) Add(key, value []byte) {
	r := b.cur
	if r.ents == nil {
		b.reserve(len(key) + len(value))
	}
	if n := len(r.ents); n > 0 && bytes.Compare(key, r.key(n-1)) < 0 {
		r.inverted = true
	}
	off := len(r.slab)
	r.slab = append(r.slab, key...)
	r.slab = append(r.slab, value...)
	r.ents = append(r.ents, kvRef{off: off, klen: len(key), vlen: len(value)})
	b.n++
	if len(r.slab) >= sortedRunBytes {
		b.seal()
	}
}

// add is Add in the shape of an encodeRows sink.
func (b *SortedRunBuilder) add(key, value []byte) error {
	b.Add(key, value)
	return nil
}

// Len returns the number of buffered pairs.
func (b *SortedRunBuilder) Len() int { return b.n }

func (b *SortedRunBuilder) seal() {
	if len(b.cur.ents) == 0 {
		return
	}
	b.cur.sort()
	b.runs = append(b.runs, b.cur)
	b.cur = &sortedRun{}
}

// runCursor is one run's position in the merge heap. seq is the run's
// seal order, the tie-break that keeps the merge stable on equal keys.
type runCursor struct {
	run *sortedRun
	pos int
	seq int
}

type runHeap []runCursor

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(a, b int) bool {
	if c := bytes.Compare(h[a].run.key(h[a].pos), h[b].run.key(h[b].pos)); c != 0 {
		return c < 0
	}
	return h[a].seq < h[b].seq
}
func (h runHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(runCursor)) }
func (h *runHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Emit seals the current run and streams every pair in ascending key order.
// Equal keys surface in insertion order (runs are merged stably), so the
// caller can detect duplicates by comparing consecutive keys.
func (b *SortedRunBuilder) Emit(fn func(key, value []byte) error) error {
	b.seal()
	switch len(b.runs) {
	case 0:
		return nil
	case 1:
		r := b.runs[0]
		for i := range r.ents {
			if err := fn(r.key(i), r.value(i)); err != nil {
				return err
			}
		}
		return nil
	}
	h := make(runHeap, 0, len(b.runs))
	for seq, r := range b.runs {
		if len(r.ents) > 0 {
			h = append(h, runCursor{run: r, seq: seq})
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		c := &h[0]
		if err := fn(c.run.key(c.pos), c.run.value(c.pos)); err != nil {
			return err
		}
		c.pos++
		if c.pos == len(c.run.ents) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return nil
}

// BulkInsert adds rows through the bottom-up load path: every row is
// encoded once (NULL Identity columns auto-fill, values coerce to their
// column types) and written into packed B+tree pages without any tree
// descents. Into a non-empty table it sorts the batch and merges it with
// the existing rows into a fresh tree — still one sequential pass.
// PRIMARY KEY uniqueness is enforced against both the batch and the
// existing rows.
//
// Rows need not arrive sorted, but order pays: into an empty table the
// rows stream into the tree for as long as their encoded keys ascend, with
// nothing buffered. The first row whose key falls below its predecessor's
// diverts itself and every later row into a sorted run, which then merges
// with the streamed prefix as if the prefix were existing rows — so the
// prefix's pages are allocated, read back once and freed, on top of the
// sort. A load in key order pays none of that; a shuffled one streams a
// row or two and pays one page.
//
// Rowids (and therefore the scan order of equal clustered keys) are
// assigned in slice order, continuing the table's sequence, and so are
// identity values: two loads equal one load of both batches. A load into
// a non-empty table rewrites all of its rows, so a one-row load into an
// N-row table costs the N-row rebuild. The rebuilt tree publishes as one
// new version: concurrent readers keep the version they started with,
// and a failed load publishes nothing.
func (t *Table) BulkInsert(rows [][]Value) error {
	return t.BulkInsertFunc(len(rows), func(i int) []Value { return rows[i] })
}

// BulkInsertFunc is BulkInsert over a row generator instead of a
// materialised slice: rowAt(i) is called exactly once for each i in [0, n),
// in order, and may return the same backing slice every time — each row is
// encoded before the next call. Large loads whose rows are derived from an
// in-memory source (spZone, spImportGalaxy) stream through one scratch row
// instead of allocating n of them.
func (t *Table) BulkInsertFunc(n int, rowAt func(i int) []Value) error {
	if n == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	nv, err := t.mergedVersion(v, n, rowAt)
	if err != nil {
		return err
	}
	t.publishLocked(v, nv)
	return nil
}

// mergedVersion builds the version that BulkInsert publishes: v's rows
// merged with n new ones into a fresh bulk-built tree. On error nothing
// is published and the abandoned pages are deallocated immediately. A
// column-primary v first materialises its tree from the segments; the
// merge reads it once and frees it.
func (t *Table) mergedVersion(v *tableVersion, n int, rowAt func(i int) []Value) (*tableVersion, error) {
	if v.colPrimary() {
		mv, err := t.materialisedVersion(v)
		if err != nil {
			return nil, err
		}
		defer t.freePages(mv.treePages)
		v = mv
	}
	nv := *v
	nv.seq++
	tree, pages, err := t.loadTree(v, &nv, n, rowAt)
	if err != nil {
		return nil, err
	}
	nv.tree, nv.treePages, nv.rows = tree, pages, v.rows+int64(n)
	return &nv, nil
}

// rebuiltVersion builds a replace-everything version (ReplaceAll,
// Recluster): rowids restart at 1 and the previous contents do not carry
// over. The identity counter does: rewritten rows keep their identity
// values, so the next one assigned continues after v's (only Truncate
// restarts it). keyCols/unique become the new version's key layout, so a
// reclustering publishes ordering and layout in one atomic step.
func (t *Table) rebuiltVersion(v *tableVersion, keyCols []int, unique bool, n int, rowAt func(i int) []Value) (*tableVersion, error) {
	nv := &tableVersion{
		seq: v.seq + 1, keyCols: keyCols, unique: unique,
		nextRowID: 1, nextIdentity: v.nextIdentity,
	}
	if n == 0 {
		tree, err := storage.NewBTree(t.pool)
		if err != nil {
			return nil, err
		}
		nv.tree, nv.treePages = tree, []storage.PageID{tree.Root()}
		return nv, nil
	}
	tree, pages, err := t.loadTree(nil, nv, n, rowAt)
	if err != nil {
		return nil, err
	}
	nv.tree, nv.treePages, nv.rows = tree, pages, int64(n)
	return nv, nil
}

// encodeRows encodes n rows in order and hands each (key, row) pair to
// emit, assigning rowids and identity values from (and advancing) nv's
// counters and encoding keys with nv's key layout. nv is the
// under-construction version, private to the calling writer. Both slices
// are scratch: emit copies what it keeps.
func (t *Table) encodeRows(nv *tableVersion, n int, rowAt func(i int) []Value, emit func(key, data []byte) error) error {
	tv := TableView{t: t, v: nv}
	vals := make([]Value, len(t.Cols))
	var keyBuf, rowBuf []byte
	for ri := 0; ri < n; ri++ {
		row := rowAt(ri)
		if len(row) != len(t.Cols) {
			return fmt.Errorf("sqldb: INSERT into %s has %d values for %d columns", t.Name, len(row), len(t.Cols))
		}
		copy(vals, row)
		for i, c := range t.Cols {
			if c.Identity && vals[i].IsNull() {
				vals[i] = Int(nv.nextIdentity)
				nv.nextIdentity++
			}
			if !vals[i].NeedsCoerce(c.Type) {
				continue // bulk ingest's common case: already typed
			}
			var err error
			vals[i], err = vals[i].CoerceTo(c.Type)
			if err != nil {
				return fmt.Errorf("sqldb: table %s column %s: %w", t.Name, c.Name, err)
			}
		}
		rowid := nv.nextRowID
		nv.nextRowID++
		key, err := tv.appendKey(keyBuf[:0], vals, rowid)
		if err != nil {
			return err
		}
		keyBuf = key
		data, err := appendRow(rowBuf[:0], t.Cols, vals)
		if err != nil {
			return err
		}
		rowBuf = data
		if err := emit(key, data); err != nil {
			return err
		}
	}
	return nil
}

// treeLoad is one bottom-up tree build: the loader plus the consecutive-key
// PRIMARY KEY check every stream into it passes through.
type treeLoad struct {
	t       *Table
	loader  *storage.BulkLoader
	unique  bool
	prevKey []byte // last key added; nil before the first
}

func (t *Table) newTreeLoad(unique bool) (*treeLoad, error) {
	loader, err := storage.NewBulkLoader(t.pool)
	if err != nil {
		return nil, err
	}
	return &treeLoad{t: t, loader: loader, unique: unique}, nil
}

func (l *treeLoad) add(key, value []byte) error {
	if l.unique && l.prevKey != nil && bytes.Equal(l.prevKey, key) {
		return fmt.Errorf("sqldb: duplicate primary key in table %s", l.t.Name)
	}
	l.prevKey = append(l.prevKey[:0], key...)
	return l.loader.Add(key, value)
}

// abort deallocates the pages built so far — they were never published, so
// nothing can reference them.
func (l *treeLoad) abort() {
	l.loader.Abort()
	l.t.freePages(l.loader.Pages())
}

func (l *treeLoad) finish() (*storage.BTree, []storage.PageID, error) {
	tree, err := l.loader.Finish()
	return tree, l.loader.Pages(), err
}

func (t *Table) freePages(pages []storage.PageID) {
	for _, id := range pages {
		_ = t.pool.Dealloc(id)
	}
}

// loadTree encodes n rows under nv (see encodeRows) and builds the tree
// holding them together with base's rows (nil base = none), returning it
// and its complete page inventory. Into an empty base the pairs stream
// into the loader while their keys ascend; the first inversion diverts the
// remainder into a sorted run — sized for the pairs still to come — that
// merges with the streamed prefix standing in as the existing rows.
func (t *Table) loadTree(base, nv *tableVersion, n int, rowAt func(i int) []Value) (*storage.BTree, []storage.PageID, error) {
	if base != nil && base.rows > 0 {
		b := NewSortedRunBuilder(n)
		if err := t.encodeRows(nv, n, rowAt, b.add); err != nil {
			return nil, nil, err
		}
		return t.buildTree(base, b, nv.unique)
	}
	l, err := t.newTreeLoad(nv.unique)
	if err != nil {
		return nil, nil, err
	}
	var rest *SortedRunBuilder
	err = t.encodeRows(nv, n, rowAt, func(key, data []byte) error {
		if rest == nil {
			// An equal key is a PRIMARY KEY duplicate (rowid-suffixed keys
			// never tie): add reports it.
			if bytes.Compare(key, l.prevKey) >= 0 {
				return l.add(key, data)
			}
			rest = NewSortedRunBuilder(n - l.loader.Count())
		}
		return rest.add(key, data)
	})
	if err != nil {
		l.abort()
		return nil, nil, err
	}
	tree, pages, err := l.finish()
	if err != nil || rest == nil {
		return tree, pages, err
	}
	defer t.freePages(pages) // the prefix was never published
	prefix := &tableVersion{tree: tree, rows: int64(l.loader.Count())}
	return t.buildTree(prefix, rest, nv.unique)
}

// buildTree streams the union of v's rows and the builder's pairs into a
// fresh bulk-built tree, returning the tree and its complete page
// inventory. On error the partially built pages are deallocated before
// returning.
func (t *Table) buildTree(v *tableVersion, b *SortedRunBuilder, unique bool) (*storage.BTree, []storage.PageID, error) {
	l, err := t.newTreeLoad(unique)
	if err != nil {
		return nil, nil, err
	}
	if err := t.mergeVersion(v, b, l.add); err != nil {
		l.abort()
		return nil, nil, err
	}
	return l.finish()
}

// mergeVersion streams the union of v's tree and the builder's pairs in
// ascending key order. Existing rows win ties so a unique-key duplicate
// in the batch surfaces as two consecutive equal keys.
func (t *Table) mergeVersion(v *tableVersion, b *SortedRunBuilder, fn func(key, value []byte) error) error {
	cur, err := v.tree.First()
	if err != nil {
		return err
	}
	defer cur.Close()
	// emitExistingTo streams existing pairs with key <= bound (all of them
	// when bound is nil).
	emitExistingTo := func(bound []byte) error {
		for cur.Valid() {
			if bound != nil && bytes.Compare(cur.Key(), bound) > 0 {
				return nil
			}
			if err := fn(cur.Key(), cur.Value()); err != nil {
				return err
			}
			if err := cur.Next(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := b.Emit(func(key, value []byte) error {
		if err := emitExistingTo(key); err != nil {
			return err
		}
		return fn(key, value)
	}); err != nil {
		return err
	}
	return emitExistingTo(nil)
}
