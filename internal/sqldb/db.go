package sqldb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// DB is a single-namespace SQL database: the engine's equivalent of one
// SQL Server instance (or one CasJobs MyDB). Open gives an in-memory
// database.
//
// Reads are snapshot-isolated and never block on writers. The catalog is
// an immutable value behind an atomic pointer (DDL clones and swaps it),
// each table's contents are an immutable version behind its own atomic
// pointer, and a query pins both through one Snapshot taken at query
// start. Superseded versions' pages are reclaimed by a storage.Reclaimer
// once the last snapshot that could reach them closes.
type DB struct {
	pool *storage.Pool
	rec  *storage.Reclaimer

	ddl sync.Mutex // serialises catalog transitions (one clone-and-swap at a time)
	cat atomic.Pointer[catalog]

	// met is the statement-level instrumentation attached by
	// EnableMetrics; nil (the default) keeps every statement free of
	// metric work beyond one pointer load.
	met atomic.Pointer[dbMetrics]
}

// catalog is one immutable published state of the database's namespace:
// tables and registered functions. DDL never mutates a published catalog
// — it clones, edits the clone, and swaps the pointer — so a Snapshot's
// name resolution is stable for the whole query.
type catalog struct {
	tables  map[string]*Table
	scalars map[string]ScalarFunc
	tvfs    map[string]*TVF
}

func newCatalog() *catalog {
	return &catalog{
		tables:  make(map[string]*Table),
		scalars: make(map[string]ScalarFunc),
		tvfs:    make(map[string]*TVF),
	}
}

func (c *catalog) clone() *catalog {
	nc := &catalog{
		tables:  make(map[string]*Table, len(c.tables)+1),
		scalars: make(map[string]ScalarFunc, len(c.scalars)+1),
		tvfs:    make(map[string]*TVF, len(c.tvfs)+1),
	}
	for k, v := range c.tables {
		nc.tables[k] = v
	}
	for k, v := range c.scalars {
		nc.scalars[k] = v
	}
	for k, v := range c.tvfs {
		nc.tvfs[k] = v
	}
	return nc
}

// updateCatalog runs one clone-edit-swap catalog transition. fn edits the
// clone in place; an error discards it and publishes nothing.
func (db *DB) updateCatalog(fn func(c *catalog) error) error {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	nc := db.cat.Load().clone()
	if err := fn(nc); err != nil {
		return err
	}
	db.cat.Store(nc)
	return nil
}

// PoolConfig sizes the database's buffer pool.
type PoolConfig struct {
	// Frames is the pool size in page frames (0 selects 4096 = 32 MiB).
	// The pool takes storage.PoolOptions' default lock-shard count.
	Frames int
}

func (c PoolConfig) options() storage.PoolOptions {
	frames := c.Frames
	if frames == 0 {
		frames = 4096
	}
	return storage.PoolOptions{Frames: frames}
}

// Open creates an in-memory database with the given buffer-pool size in
// frames (0 selects a default of 4096 frames = 32 MiB).
func Open(frames int) *DB { return OpenPool(PoolConfig{Frames: frames}) }

// OpenPool creates an in-memory database with an explicitly configured
// buffer pool.
func OpenPool(cfg PoolConfig) *DB {
	pool := storage.NewPool(storage.NewMemStore(), cfg.options())
	db := &DB{pool: pool, rec: storage.NewReclaimer(pool)}
	db.cat.Store(newCatalog())
	return db
}

// Pool exposes the buffer pool, whose Stats feed the benchmark tables.
func (db *DB) Pool() *storage.Pool { return db.pool }

// Stats returns the pool counters.
func (db *DB) Stats() storage.Stats { return db.pool.Stats() }

// Reclaimer exposes the deferred page reclaimer; tests use its Pending
// counter to pin the version-retirement lifecycle.
func (db *DB) Reclaimer() *storage.Reclaimer { return db.rec }

// Table returns the named table from the current catalog.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.cat.Load().tables[strings.ToLower(name)]
	return t, ok
}

// TableNames lists the current catalog's tables. For a listing that stays
// consistent with subsequent per-table reads, take a Snapshot instead.
func (db *DB) TableNames() []string {
	cat := db.cat.Load()
	out := make([]string, 0, len(cat.tables))
	for _, t := range cat.tables {
		out = append(out, t.Name)
	}
	return out
}

// Snapshot pins one consistent view of the database: the catalog as of
// the call, plus — resolved lazily, at most once per table — one
// immutable version of each table the caller touches. Taking a snapshot
// is O(1) and never blocks writers; writers keep publishing while the
// snapshot reads the versions it captured. Close releases the snapshot's
// reclaimer guard; pages of superseded versions are only deallocated
// after every snapshot that could reach them has closed.
//
// A Snapshot is not safe for concurrent use by multiple goroutines (each
// query takes its own).
type Snapshot struct {
	db    *DB
	cat   *catalog
	guard *storage.Guard
	views map[string]TableView
}

// Snapshot captures the current catalog under a reclaimer guard. The
// guard is entered before the catalog pointer is loaded, so every version
// later resolved through the snapshot is pinned: any retirement that
// could free those pages is stamped at or after this guard's ticket.
func (db *DB) Snapshot() *Snapshot {
	g := db.rec.Enter()
	return &Snapshot{db: db, cat: db.cat.Load(), guard: g}
}

// View resolves the named table to the version this snapshot reads. The
// first call per table loads the table's current version; repeats return
// the same view, so a query that mentions a table twice (a self-join)
// sees one version. A table dropped or renamed over since the snapshot
// took its catalog reads as it was when it left the catalog, never as
// the empty version the drop published.
func (s *Snapshot) View(name string) (TableView, bool) {
	key := strings.ToLower(name)
	if tv, ok := s.views[key]; ok {
		return tv, true
	}
	t, ok := s.cat.tables[key]
	if !ok {
		return TableView{}, false
	}
	tv := t.View()
	if tv.v.dropped != nil {
		tv.v = tv.v.dropped
	}
	if s.views == nil {
		s.views = make(map[string]TableView)
	}
	s.views[key] = tv
	return tv, true
}

// TableNames lists the snapshot catalog's tables.
func (s *Snapshot) TableNames() []string {
	out := make([]string, 0, len(s.cat.tables))
	for _, t := range s.cat.tables {
		out = append(out, t.Name)
	}
	return out
}

// Close releases the snapshot's guard. Idempotent; must be called once
// the query is done with every cursor opened through the snapshot.
func (s *Snapshot) Close() { s.guard.Release() }

// tvf resolves a table-valued function from the snapshot catalog.
func (s *Snapshot) tvf(name string) (*TVF, bool) {
	t, ok := s.cat.tvfs[strings.ToUpper(name)]
	return t, ok
}

// CreateTable creates a table programmatically. pkCol may be empty.
func (db *DB) CreateTable(name string, cols []Column, pkCol string) (*Table, error) {
	var keyCols []int
	unique := false
	if pkCol != "" {
		for i, c := range cols {
			if strings.EqualFold(c.Name, pkCol) {
				keyCols = []int{i}
				unique = true
				break
			}
		}
		if keyCols == nil {
			return nil, fmt.Errorf("sqldb: PRIMARY KEY column %q not in column list", pkCol)
		}
	}
	t, err := newTable(db.pool, db.rec, name, cols, keyCols, unique)
	if err != nil {
		return nil, err
	}
	if err := db.installTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

// CreateTableClustered creates a table whose storage is clustered on the
// given (non-unique) key columns from the start, avoiding the rebuild that
// CREATE CLUSTERED INDEX performs. Loads are fastest when rows arrive in
// key order.
func (db *DB) CreateTableClustered(name string, cols []Column, keyCols []string) (*Table, error) {
	idx := make([]int, len(keyCols))
	for i, kc := range keyCols {
		found := -1
		for ci, c := range cols {
			if strings.EqualFold(c.Name, kc) {
				found = ci
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("sqldb: clustered key column %q not in column list", kc)
		}
		idx[i] = found
	}
	t, err := newTable(db.pool, db.rec, name, cols, idx, false)
	if err != nil {
		return nil, err
	}
	if err := db.installTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

func (db *DB) installTable(t *Table) error {
	return db.updateCatalog(func(c *catalog) error {
		key := strings.ToLower(t.Name)
		if _, exists := c.tables[key]; exists {
			return fmt.Errorf("sqldb: table %s already exists", t.Name)
		}
		c.tables[key] = t
		return nil
	})
}

// RenameTable atomically renames a catalog entry, replacing any existing
// table under the new name. It is the commit step of the stage-and-swap
// pattern: load a fresh table under a scratch name, then rename it over
// the target, so readers observe either the complete old table or the
// complete new one — never a half-loaded middle state. The rename
// publishes a new handle; queries already planned keep the name and the
// version they bound.
func (db *DB) RenameTable(oldName, newName string) error {
	var replaced *Table
	err := db.updateCatalog(func(c *catalog) error {
		oldKey, newKey := strings.ToLower(oldName), strings.ToLower(newName)
		t, ok := c.tables[oldKey]
		if !ok {
			return fmt.Errorf("sqldb: table %s does not exist", oldName)
		}
		if oldKey == newKey {
			return nil
		}
		replaced = c.tables[newKey] // nil when the target name was free
		delete(c.tables, oldKey)
		c.tables[newKey] = t.renamed(newName)
		return nil
	})
	if err == nil && replaced != nil {
		replaced.retireContents()
	}
	return err
}

// DropTable removes a table from the catalog and schedules its pages for
// reclamation.
func (db *DB) DropTable(name string, ifExists bool) error {
	var dropped *Table
	err := db.updateCatalog(func(c *catalog) error {
		key := strings.ToLower(name)
		t, ok := c.tables[key]
		if !ok {
			if ifExists {
				return nil
			}
			return fmt.Errorf("sqldb: table %s does not exist", name)
		}
		dropped = t
		delete(c.tables, key)
		return nil
	})
	if err == nil && dropped != nil {
		dropped.retireContents()
	}
	return err
}

// RegisterScalar installs a scalar UDF callable from SQL (case-insensitive).
func (db *DB) RegisterScalar(name string, fn ScalarFunc) {
	_ = db.updateCatalog(func(c *catalog) error {
		c.scalars[strings.ToUpper(name)] = fn
		return nil
	})
}

// RegisterTVF installs a table-valued function callable in FROM clauses.
func (db *DB) RegisterTVF(name string, tvf *TVF) {
	_ = db.updateCatalog(func(c *catalog) error {
		c.tvfs[strings.ToUpper(name)] = tvf
		return nil
	})
}

func (db *DB) scalarFunc(name string) (ScalarFunc, bool) {
	fn, ok := db.cat.Load().scalars[strings.ToUpper(name)]
	return fn, ok
}

func (db *DB) tvf(name string) (*TVF, bool) {
	t, ok := db.cat.Load().tvfs[strings.ToUpper(name)]
	return t, ok
}

// Query parses and executes a SELECT (or EXPLAIN [ANALYZE] SELECT),
// returning its rows. EXPLAIN returns the physical plan as one text row
// per line under a single "plan" column.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	return db.QueryContext(context.Background(), sql, args...)
}

// QueryContext is Query under a context: cancelling ctx (or its deadline
// expiring) stops execution at row-batch granularity — scans, sorts, and
// the zone sweeps all observe it — and returns an error wrapping
// ctx.Err().
func (db *DB) QueryContext(ctx context.Context, sql string, args ...Value) (*Rows, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		m := db.metrics()
		start := m.now()
		rows, err := db.execSelect(ctx, s, args)
		if err == nil {
			m.statement("select", start)
			m.out(int64(rows.Len()))
		}
		return rows, err
	case *ExplainStmt:
		return db.execExplain(ctx, s, args)
	}
	return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
}

// QueryIter parses a SELECT and returns a streaming iterator over its
// physical plan: rows surface one at a time instead of materialising the
// whole result, so a scan over millions of rows holds one row's memory.
// The caller must Close the iterator.
func (db *DB) QueryIter(sql string, args ...Value) (*RowIter, error) {
	return db.QueryIterContext(context.Background(), sql, args...)
}

// QueryIterContext is QueryIter under a context; after cancellation the
// iterator's Next returns false and Err reports the wrapped ctx.Err().
// The iterator owns the query's snapshot: rows stream from the versions
// pinned at this call no matter what is written meanwhile, and Close
// releases the pin.
func (db *DB) QueryIterContext(ctx context.Context, sql string, args ...Value) (*RowIter, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: QueryIter requires a SELECT statement")
	}
	snap := db.Snapshot()
	op, cols, err := db.planSelect(ctx, sel, args, snap)
	if err != nil {
		snap.Close()
		return nil, err
	}
	m := db.metrics()
	return &RowIter{cols: cols, op: op, snap: snap, met: m, start: m.now()}, nil
}

// Explain compiles a SELECT (a bare one, or an EXPLAIN [ANALYZE] wrapper)
// and returns the physical plan as a multi-line string. With ANALYZE the
// plan also executes so operators report actual row counts.
func (db *DB) Explain(sql string, args ...Value) (string, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return "", err
	}
	var ex *ExplainStmt
	switch s := stmt.(type) {
	case *ExplainStmt:
		ex = s
	case *SelectStmt:
		ex = &ExplainStmt{Query: s}
	default:
		return "", fmt.Errorf("sqldb: Explain requires a SELECT statement")
	}
	rows, err := db.execExplain(context.Background(), ex, args)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, rows.Len())
	for rows.Next() {
		lines = append(lines, rows.Row()[0].S)
	}
	return strings.Join(lines, "\n"), nil
}

// execExplain plans (and under ANALYZE, runs) the wrapped SELECT, then
// renders the operator tree one line per row.
func (db *DB) execExplain(ctx context.Context, s *ExplainStmt, params []Value) (*Rows, error) {
	m := db.metrics()
	start := m.now()
	snap := db.Snapshot()
	defer snap.Close()
	op, _, err := db.planSelect(ctx, s.Query, params, snap)
	if err != nil {
		return nil, err
	}
	defer op.close()
	if s.Analyze {
		enableTiming(op)
		if err := drainDiscard(op); err != nil {
			return nil, err
		}
	}
	m.statement("explain", start)
	lines := renderPlan(op, s.Analyze)
	data := make([][]Value, len(lines))
	for i, l := range lines {
		data[i] = []Value{String(l)}
	}
	return &Rows{Columns: []string{"plan"}, data: data}, nil
}

// Exec parses and executes any single statement, returning the number of
// rows affected (or returned, for SELECT).
func (db *DB) Exec(sql string, args ...Value) (int64, error) {
	return db.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec under a context. SELECT/EXPLAIN and the scans
// driving INSERT...SELECT, UPDATE, and DELETE observe cancellation; DDL
// and the final write of an already-staged batch do not (they are short
// and atomic — interrupting them would trade a bounded delay for a
// half-applied catalog).
func (db *DB) ExecContext(ctx context.Context, sql string, args ...Value) (int64, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return 0, err
	}
	return db.execStmt(ctx, stmt, args)
}

// ExecScript runs a semicolon-separated sequence of statements, stopping at
// the first error.
func (db *DB) ExecScript(sql string, args ...Value) error {
	stmts, err := ParseScript(sql)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, err := db.execStmt(context.Background(), s, args); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) execStmt(ctx context.Context, stmt Statement, params []Value) (int64, error) {
	m := db.metrics()
	start := m.now()
	switch s := stmt.(type) {
	case *SelectStmt:
		rows, err := db.execSelect(ctx, s, params)
		if err != nil {
			return 0, err
		}
		m.statement("select", start)
		m.out(int64(rows.Len()))
		return int64(rows.Len()), nil
	case *ExplainStmt:
		// execExplain records its own verb so the Explain convenience
		// entry point counts identically.
		rows, err := db.execExplain(ctx, s, params)
		if err != nil {
			return 0, err
		}
		return int64(rows.Len()), nil
	case *CreateTableStmt:
		err := db.execCreateTable(s)
		if err == nil {
			m.statement("create_table", start)
		}
		return 0, err
	case *CreateIndexStmt:
		err := db.execCreateIndex(s)
		if err == nil {
			m.statement("create_index", start)
		}
		return 0, err
	case *DropTableStmt:
		err := db.DropTable(s.Name, s.IfExists)
		if err == nil {
			m.statement("drop_table", start)
		}
		return 0, err
	case *TruncateStmt:
		t, ok := db.Table(s.Table)
		if !ok {
			return 0, fmt.Errorf("sqldb: unknown table %s", s.Table)
		}
		n := t.NumRows()
		err := t.Truncate()
		if err == nil {
			m.statement("truncate", start)
			m.wrote(n)
		}
		return n, err
	case *InsertStmt:
		n, err := db.execInsert(ctx, s, params)
		if err == nil {
			m.statement("insert", start)
			m.wrote(n)
		}
		return n, err
	case *UpdateStmt:
		n, err := db.execUpdate(ctx, s, params)
		if err == nil {
			m.statement("update", start)
			m.wrote(n)
		}
		return n, err
	case *DeleteStmt:
		n, err := db.execDelete(ctx, s, params)
		if err == nil {
			m.statement("delete", start)
			m.wrote(n)
		}
		return n, err
	}
	return 0, fmt.Errorf("sqldb: unsupported statement %T", stmt)
}

func (db *DB) execCreateTable(s *CreateTableStmt) error {
	cols := make([]Column, len(s.Cols))
	pk := ""
	for i, c := range s.Cols {
		cols[i] = Column{Name: c.Name, Type: c.Type, Identity: c.Identity}
		if c.PK {
			if pk != "" {
				return fmt.Errorf("sqldb: table %s declares multiple primary keys", s.Name)
			}
			pk = c.Name
		}
	}
	_, err := db.CreateTable(s.Name, cols, pk)
	return err
}

func (db *DB) execCreateIndex(s *CreateIndexStmt) error {
	if !s.Clustered {
		return fmt.Errorf("sqldb: only CLUSTERED indexes are supported (non-clustered index %s)", s.Name)
	}
	t, ok := db.Table(s.Table)
	if !ok {
		return fmt.Errorf("sqldb: unknown table %s", s.Table)
	}
	if s.Columnstore {
		return t.reclusterColumnar(s.Cols)
	}
	return t.Recluster(s.Cols)
}

func (db *DB) execInsert(ctx context.Context, s *InsertStmt, params []Value) (int64, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("sqldb: unknown table %s", s.Table)
	}
	// Map the statement's column list to schema positions.
	colIdx := make([]int, 0, len(t.Cols))
	if len(s.Cols) == 0 {
		for i := range t.Cols {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.Cols {
			ci := t.ColIndex(name)
			if ci < 0 {
				return 0, fmt.Errorf("sqldb: no column %q in table %s", name, s.Table)
			}
			colIdx = append(colIdx, ci)
		}
	}
	buildRow := func(vals []Value) ([]Value, error) {
		if len(vals) != len(colIdx) {
			return nil, fmt.Errorf("sqldb: INSERT supplies %d values for %d columns", len(vals), len(colIdx))
		}
		row := make([]Value, len(t.Cols))
		for i := range row {
			row[i] = Null()
		}
		for i, ci := range colIdx {
			row[ci] = vals[i]
		}
		return row, nil
	}

	// Both INSERT forms stage their rows first and land multi-row batches
	// through the bulk-load path (encode once, sort the run, build packed
	// pages) instead of trickling one tree descent per row — the spZone
	// shape "fill a table from a query, then cluster it" gets the batch
	// ingest plan from plain SQL. Staging also makes the statement atomic:
	// a mid-batch failure (bad value, duplicate key) leaves the table
	// untouched instead of half-loaded. An INSERT...SELECT reads its own
	// snapshot of the source, so selecting from the target table sees the
	// pre-insert rows.
	var batch [][]Value
	if s.Query != nil {
		rows, err := db.execSelect(ctx, s.Query, params)
		if err != nil {
			return 0, err
		}
		batch = make([][]Value, 0, rows.Len())
		for rows.Next() {
			row, err := buildRow(rows.Row())
			if err != nil {
				return 0, err
			}
			batch = append(batch, row)
		}
	} else {
		comp := &compiler{params: params, db: db}
		batch = make([][]Value, 0, len(s.Rows))
		for _, exprs := range s.Rows {
			vals, err := evalArgs(comp.compileAll(exprs), nil)
			if err != nil {
				return 0, err
			}
			row, err := buildRow(vals)
			if err != nil {
				return 0, err
			}
			batch = append(batch, row)
		}
	}
	if len(batch) == 1 {
		// A single row keeps the point-insert plan: one descent beats
		// BulkInsert's whole-table merge on a non-empty target.
		if err := t.Insert(batch[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if err := t.BulkInsert(batch); err != nil {
		return 0, err
	}
	return int64(len(batch)), nil
}

// execUpdate rewrites the table: matching rows get their SET columns
// re-evaluated. Key-column updates move rows, which the rewrite handles
// naturally. The scan and the replacement run under one writer critical
// section, so concurrent Inserts cannot be lost between them; readers
// keep streaming their own versions throughout.
func (db *DB) execUpdate(ctx context.Context, s *UpdateStmt, params []Value) (int64, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("sqldb: unknown table %s", s.Table)
	}
	sch := make(schema, len(t.Cols))
	for i, c := range t.Cols {
		sch[i] = colMeta{alias: strings.ToLower(t.Name), name: c.Name}
	}
	setIdx := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		ci := t.ColIndex(set.Col)
		if ci < 0 {
			return 0, fmt.Errorf("sqldb: no column %q in table %s", set.Col, s.Table)
		}
		setIdx[i] = ci
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Scanning the locked current version needs no reclaimer guard: only
	// the lock holder retires this table's pages.
	cur, err := t.View().Scan()
	if err != nil {
		return 0, err
	}
	cc := newCancelCheck(ctx)
	var rows [][]Value
	var n int64
	comp := &compiler{sch: sch, params: params, db: db}
	where := comp.pred(s.Where)
	sets := make([]evalFn, len(s.Sets))
	for i, set := range s.Sets {
		sets[i] = comp.compile(set.Val)
	}
	for cur.Next() {
		if err := cc.tick(); err != nil {
			cur.Close()
			return 0, err
		}
		row := append([]Value(nil), cur.Row()...)
		match, err := holds(where, row)
		if err != nil {
			cur.Close()
			return 0, err
		}
		if match {
			updated := append([]Value(nil), row...)
			for i, set := range sets {
				v, err := set(row)
				if err != nil {
					cur.Close()
					return 0, err
				}
				updated[setIdx[i]] = v
			}
			rows = append(rows, updated)
			n++
		} else {
			rows = append(rows, row)
		}
	}
	cur.Close()
	if err := cur.Err(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return n, t.replaceAllLocked(rows)
}

// execDelete rewrites the table without the matching rows, under the same
// single writer critical section as execUpdate.
func (db *DB) execDelete(ctx context.Context, s *DeleteStmt, params []Value) (int64, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("sqldb: unknown table %s", s.Table)
	}
	sch := make(schema, len(t.Cols))
	for i, c := range t.Cols {
		sch[i] = colMeta{alias: strings.ToLower(t.Name), name: c.Name}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, err := t.View().Scan()
	if err != nil {
		return 0, err
	}
	cc := newCancelCheck(ctx)
	var keep [][]Value
	var n int64
	where := (&compiler{sch: sch, params: params, db: db}).pred(s.Where)
	for cur.Next() {
		if err := cc.tick(); err != nil {
			cur.Close()
			return 0, err
		}
		row := append([]Value(nil), cur.Row()...)
		match, err := holds(where, row)
		if err != nil {
			cur.Close()
			return 0, err
		}
		if match {
			n++
		} else {
			keep = append(keep, row)
		}
	}
	cur.Close()
	if err := cur.Err(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return n, t.replaceAllLocked(keep)
}
