package sqldb

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/colstore"
)

// Physical planning and execution: the second half of query compilation.
// planSelect lowers a bound logicalPlan (plan.go) into a tree of physOps —
// Volcano-style iterators that also know how to describe themselves, so
// EXPLAIN prints exactly the tree that runs. Heavy work (opening cursors,
// materialising a join's build side, running a batched sweep) happens on
// the first next() call, never at construction: building a plan is free,
// which is what lets EXPLAIN show a plan without executing it.
//
// The planner is rule-based. Current rules, in the order they apply:
//
//   - scan lowering: a column-primary table scans its segment pages
//     (ColumnarScan); a row table's extracted clustered-key bounds pick
//     RangeScan over SeqScan.
//   - lateral TVF lowering: a join against a TVF whose arguments reference
//     outer columns becomes a ZoneSweepJoin when the TVF can answer probe
//     batches (TVF.Batch — the paper's batched zone join from plain SQL)
//     and its Source table, if any, carries column segments (the only
//     pages the sweep reads); else a per-outer-row TVFApply.
//   - equi-join detection: inner joins with usable equality conjuncts
//     build a HashJoin; everything else nests loops.
//
// To add a rule: pattern-match in lowerSource (or the operator stack in
// planSelect) and return a new physOp implementing next/close/describe.

// cancelCheck is one statement's shared cancellation probe. Row-producing
// operators tick it per row; every cancelBatch ticks the probe actually
// polls ctx.Err, so cancellation lands at row-batch granularity without a
// per-row atomic in the hot scan loops (a plan executes on one goroutine,
// so the counter needs no synchronisation). A nil *cancelCheck is inert,
// keeping plans built without a context free of even the counter.
type cancelCheck struct {
	ctx context.Context
	n   uint
}

// cancelBatch is how many rows flow between ctx.Err polls. Small enough
// that a cancelled scan over a big table stops within microseconds, large
// enough that the poll vanishes against per-row decode work.
const cancelBatch = 256

// newCancelCheck returns the statement's probe, or nil for background
// contexts where cancellation can never fire.
func newCancelCheck(ctx context.Context) *cancelCheck {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &cancelCheck{ctx: ctx}
}

// tick counts one row and polls the context every cancelBatch rows.
func (c *cancelCheck) tick() error {
	if c == nil {
		return nil
	}
	c.n++
	if c.n%cancelBatch != 0 {
		return nil
	}
	return c.poll()
}

// poll reports the statement's cancellation state immediately.
func (c *cancelCheck) poll() error {
	if c == nil {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("sqldb: query interrupted: %w", err)
	}
	return nil
}

// execCtx returns the context operators hand to cooperating subsystems
// (TVF.Batch and its zone sweeps).
func (c *cancelCheck) execCtx() context.Context {
	if c == nil {
		return context.Background()
	}
	return c.ctx
}

// opStats carries the row-count bookkeeping every operator shares.
// est is the planner's estimate (-1 when unknown); actual counts rows the
// operator has emitted, reported by EXPLAIN ANALYZE. When timed is set
// (execExplain flips it on the whole tree before an ANALYZE run) nanos
// accumulates the operator's wall time across next() calls, inclusive of
// its children; untimed plans pay one predicted branch per row and never
// allocate, which is what keeps the gated benchmarks byte-identical.
type opStats struct {
	est    int64
	actual int64
	ran    bool
	timed  bool
	nanos  int64
}

// timeFrom accumulates wall time since t0. Operators invoke it through a
// conditional defer at the top of next(); the defer only exists on the
// timed path.
func (st *opStats) timeFrom(t0 time.Time) { st.nanos += int64(time.Since(t0)) }

// enableTiming marks every operator in the tree for wall-time collection.
func enableTiming(op physOp) {
	op.stats().timed = true
	for _, k := range op.children() {
		enableTiming(k)
	}
}

// physOp is a physical plan operator: a row iterator (next returns nil at
// end of stream) that can also print itself.
//
// Row ownership: a row returned by next() is only valid until the
// following next() call — source operators reuse cursor buffers and
// scratch rows, which is what keeps scan-shaped queries allocation-light.
// A consumer that retains rows across calls copies them (drainOp does;
// the join operators copy the outer row they hold). The row-shaping
// operators projectOp and aggregateOp emit freshly allocated rows, so
// everything downstream of them — Sort, Distinct, Limit, the drained Rows
// result, RowIter — hands out caller-owned slices.
type physOp interface {
	next() ([]Value, error)
	close()
	describe() string
	children() []physOp
	stats() *opStats
}

// drainOp exhausts an operator, copying each (possibly borrowed) row. The
// caller closes.
func drainOp(op physOp) ([][]Value, error) {
	var rows [][]Value
	for {
		r, err := op.next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return rows, nil
		}
		rows = append(rows, append([]Value(nil), r...))
	}
}

// drainOwned exhausts an operator that emits caller-owned rows (one with
// projectOp or aggregateOp beneath it), retaining them without copies.
func drainOwned(op physOp) ([][]Value, error) {
	var rows [][]Value
	for {
		r, err := op.next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return rows, nil
		}
		rows = append(rows, r)
	}
}

// drainDiscard exhausts an operator for its side effects (EXPLAIN ANALYZE
// row counting) without retaining anything.
func drainDiscard(op physOp) error {
	for {
		r, err := op.next()
		if err != nil {
			return err
		}
		if r == nil {
			return nil
		}
	}
}

// holds reports whether an optional compiled predicate is true for row;
// a nil predicate always holds.
func holds(pred condFn, row []Value) (bool, error) {
	if pred == nil {
		return true, nil
	}
	t, err := pred(row)
	return err == nil && t == triTrue, err
}

// evalArgs evaluates compiled arguments over row into a fresh slice (the
// callee — a TVF or a scalar function — may keep it).
func evalArgs(fns []evalFn, row []Value) ([]Value, error) {
	args := make([]Value, len(fns))
	for i, f := range fns {
		v, err := f(row)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

// ---------------------------------------------------------------------------
// Source operators

// valuesOp emits a fixed set of rows (the FROM-less SELECT's single empty
// row).
type valuesOp struct {
	st   opStats
	rows [][]Value
	i    int
}

func (o *valuesOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if o.i >= len(o.rows) {
		return nil, nil
	}
	r := o.rows[o.i]
	o.i++
	o.st.actual++
	return r, nil
}
func (o *valuesOp) close()             {}
func (o *valuesOp) describe() string   { return "Result" }
func (o *valuesOp) children() []physOp { return nil }
func (o *valuesOp) stats() *opStats    { return &o.st }

// scanLabel renders "Name" or "Name AS alias" for scan display.
func scanLabel(name, alias string) string {
	if alias != "" && !strings.EqualFold(alias, name) {
		return name + " AS " + alias
	}
	return name
}

// seqScanOp streams a whole table version in clustered order. The view is
// the one the query's snapshot pinned at planning; the snapshot's guard
// outlives the operator, so the cursor needs none of its own. cols > 0
// decodes only that column prefix of each row (logScan.prefix); the
// slots past it stay NULL.
type seqScanOp struct {
	st      opStats
	tv      TableView
	alias   string
	cols    int
	cc      *cancelCheck
	cur     *TableCursor
	started bool
}

func (o *seqScanOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if err := o.cc.tick(); err != nil {
		return nil, err
	}
	if !o.started {
		o.started = true
		cur, err := o.tv.Scan()
		if err != nil {
			return nil, err
		}
		cur.SetEagerColumns(o.cols)
		o.cur = cur
	}
	if !o.cur.Next() {
		return nil, o.cur.Err()
	}
	o.st.actual++
	return o.cur.Decoded(), nil // borrowed: reused by the cursor's next advance
}
func (o *seqScanOp) close() {
	if o.cur != nil {
		o.cur.Close()
	}
}
func (o *seqScanOp) describe() string {
	return "SeqScan " + scanLabel(o.tv.Table().Name, o.alias)
}
func (o *seqScanOp) children() []physOp { return nil }
func (o *seqScanOp) stats() *opStats    { return &o.st }

// rangeScanOp streams the rows whose leading clustered-key column lies in
// [lo, hi] (either bound may be NULL = unbounded), decoding cols as
// seqScanOp does.
type rangeScanOp struct {
	st      opStats
	tv      TableView
	alias   string
	lo, hi  Value
	cols    int
	cc      *cancelCheck
	cur     *TableCursor
	started bool
}

func (o *rangeScanOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if err := o.cc.tick(); err != nil {
		return nil, err
	}
	if !o.started {
		o.started = true
		cur, err := o.tv.RangeScan(o.lo, o.hi)
		if err != nil {
			return nil, err
		}
		cur.SetEagerColumns(o.cols)
		o.cur = cur
	}
	if !o.cur.Next() {
		return nil, o.cur.Err()
	}
	o.st.actual++
	return o.cur.Decoded(), nil // borrowed: reused by the cursor's next advance
}
func (o *rangeScanOp) close() {
	if o.cur != nil {
		o.cur.Close()
	}
}
func (o *rangeScanOp) describe() string {
	t := o.tv.Table()
	return fmt.Sprintf("RangeScan %s (%s)", scanLabel(t.Name, o.alias),
		boundsString(t.Cols[o.tv.KeyCols()[0]].Name, o.lo, o.hi))
}
func (o *rangeScanOp) children() []physOp { return nil }
func (o *rangeScanOp) stats() *opStats    { return &o.st }

// boundsString renders an inclusive leading-key window for display.
func boundsString(col string, lo, hi Value) string {
	switch {
	case !lo.IsNull() && !hi.IsNull() && Equal(lo, hi):
		return fmt.Sprintf("%s = %s", col, lo)
	case !lo.IsNull() && !hi.IsNull():
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, lo, hi)
	case !lo.IsNull():
		return fmt.Sprintf("%s >= %s", col, lo)
	default:
		return fmt.Sprintf("%s <= %s", col, hi)
	}
}

// columnarScanOp streams a column-primary table's segments: per segment,
// the touched columns decode into packed arrays (lazily, see
// colstore.Scanner) and rows materialise straight from them — no key
// decode, no null bitmap. Segments hold the rows in clustered order, so
// the operator returns what a table cursor's SeqScan/RangeScan would.
type columnarScanOp struct {
	st     opStats
	tv     TableView
	ct     *colstore.Table
	alias  string
	needed []bool // table columns to materialise; nil = all
	cc     *cancelCheck
	segs   []colstore.SegmentMeta
	scan   *colstore.Scanner
	row    []Value // scratch, reused per emitted row
	si, ri int
}

// newColumnarScan plans a columnar scan of the view's segments ct,
// pruning them through the directory by the extracted bounds on the group
// column (the leading clustered-key column).
func newColumnarScan(tv TableView, ct *colstore.Table, alias string, lo, hi Value, needed []bool) *columnarScanOp {
	segs := ct.Segments()
	if !lo.IsNull() || !hi.IsNull() {
		loF, hasLo := boundAsFloat(lo)
		hiF, hasHi := boundAsFloat(hi)
		kept := make([]colstore.SegmentMeta, 0, len(segs))
		for _, m := range segs {
			g := float64(m.Group)
			if hasLo && g < loF {
				continue
			}
			if hasHi && g > hiF {
				continue
			}
			kept = append(kept, m)
		}
		segs = kept
	}
	est := int64(0)
	for _, m := range segs {
		est += int64(m.Rows)
	}
	allNeeded := needed == nil
	if needed != nil {
		allNeeded = true
		for _, n := range needed {
			allNeeded = allNeeded && n
		}
	}
	if allNeeded {
		needed = nil
	}
	return &columnarScanOp{
		st: opStats{est: est}, tv: tv, ct: ct, alias: alias, needed: needed, segs: segs,
	}
}

func boundAsFloat(v Value) (float64, bool) {
	if v.IsNull() {
		return 0, false
	}
	f, err := v.AsFloat()
	return f, err == nil
}

func (o *columnarScanOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if err := o.cc.tick(); err != nil {
		return nil, err
	}
	for {
		if o.scan == nil {
			o.scan = o.ct.NewScanner()
		}
		if o.ri == 0 {
			if o.si >= len(o.segs) {
				return nil, nil
			}
			if err := o.scan.Load(o.segs[o.si]); err != nil {
				return nil, err
			}
		}
		if o.ri >= o.scan.NumRows() {
			o.si++
			o.ri = 0
			continue
		}
		r := o.ri
		o.ri++
		cols := o.tv.Table().Cols
		if o.row == nil {
			o.row = make([]Value, len(cols))
			for ci := range o.row {
				o.row[ci] = Null()
			}
		}
		for ci, c := range cols {
			if o.needed != nil && !o.needed[ci] {
				continue // stays NULL; the statement never reads it
			}
			if c.Type == TInt {
				o.row[ci] = Int(o.scan.Ints(ci)[r])
			} else {
				o.row[ci] = Float(o.scan.Floats(ci)[r])
			}
		}
		o.st.actual++
		return o.row, nil // borrowed: scratch reused per row
	}
}
func (o *columnarScanOp) close() {}
func (o *columnarScanOp) describe() string {
	d := fmt.Sprintf("ColumnarScan %s [%d segments", scanLabel(o.tv.Table().Name, o.alias), len(o.segs))
	if o.needed != nil {
		n := 0
		for _, b := range o.needed {
			if b {
				n++
			}
		}
		d += fmt.Sprintf(", %d/%d cols", n, len(o.tv.Table().Cols))
	}
	return d + "]"
}
func (o *columnarScanOp) children() []physOp { return nil }
func (o *columnarScanOp) stats() *opStats    { return &o.st }

// tvfScanOp evaluates a constant-argument TVF once and streams its rows.
type tvfScanOp struct {
	st      opStats
	tvf     *TVF
	name    string
	alias   string
	args    []Expr // for display
	argFns  []evalFn
	rows    [][]Value
	i       int
	started bool
}

func (o *tvfScanOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if !o.started {
		o.started = true
		args, err := evalArgs(o.argFns, nil)
		if err != nil {
			return nil, err
		}
		rows, err := o.tvf.Fn(args)
		if err != nil {
			return nil, err
		}
		o.rows = rows
	}
	if o.i >= len(o.rows) {
		return nil, nil
	}
	r := o.rows[o.i]
	o.i++
	o.st.actual++
	return r, nil
}
func (o *tvfScanOp) close() {}
func (o *tvfScanOp) describe() string {
	return fmt.Sprintf("TVFScan %s(%s)", scanLabel(o.name, o.alias), exprList(o.args))
}
func (o *tvfScanOp) children() []physOp { return nil }
func (o *tvfScanOp) stats() *opStats    { return &o.st }

// ---------------------------------------------------------------------------
// Join operators

// tvfApplyOp is the per-outer-row lateral plan: for every left row, the
// TVF's arguments re-evaluate and Fn runs — one full neighbour search per
// probe, in the paper's terms. The ZoneSweepJoin replaces exactly this
// operator; both emit identical rows in identical order.
type tvfApplyOp struct {
	st      opStats
	left    physOp
	tvf     *TVF
	name    string
	alias   string
	args    []Expr // for display
	on      Expr   // residual predicate over the combined row (inner semantics)
	argFns  []evalFn
	onFn    condFn
	leftRow []Value
	matches [][]Value
	mi      int
}

func (o *tvfApplyOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	for {
		for o.mi < len(o.matches) {
			r := o.matches[o.mi]
			o.mi++
			combined := append(append([]Value(nil), o.leftRow...), r...)
			if ok, err := holds(o.onFn, combined); !ok {
				if err != nil {
					return nil, err
				}
				continue
			}
			o.st.actual++
			return combined, nil
		}
		row, err := o.left.next()
		if err != nil || row == nil {
			return nil, err
		}
		// The outer row is held across next() calls while its matches
		// replay; the source's buffer is reused, so copy.
		o.leftRow = append(o.leftRow[:0], row...)
		args, err := evalArgs(o.argFns, o.leftRow)
		if err != nil {
			return nil, err
		}
		if o.matches, err = o.tvf.Fn(args); err != nil {
			return nil, err
		}
		o.mi = 0
	}
}
func (o *tvfApplyOp) close() { o.left.close() }
func (o *tvfApplyOp) describe() string {
	d := fmt.Sprintf("TVFApply %s(%s)", o.name, exprList(o.args))
	if o.alias != "" && !strings.EqualFold(o.alias, o.name) {
		d += " AS " + o.alias
	}
	if o.on != nil {
		d += " on " + exprString(o.on)
	}
	return d
}
func (o *tvfApplyOp) children() []physOp { return []physOp{o.left} }
func (o *tvfApplyOp) stats() *opStats    { return &o.st }

// accessPathOp is a display-only leaf under a ZoneSweepJoin: it names the
// physical representation the batched sweep reads (the TVF's Source
// table). It never executes — the sweep itself drives the pages.
type accessPathOp struct {
	st    opStats
	label string
}

func (o *accessPathOp) next() ([]Value, error) {
	return nil, fmt.Errorf("sqldb: access-path display node is not executable")
}
func (o *accessPathOp) close()             {}
func (o *accessPathOp) describe() string   { return o.label }
func (o *accessPathOp) children() []physOp { return nil }
func (o *accessPathOp) stats() *opStats    { return &o.st }

// tvfAccessPath builds the display leaf for a batch TVF and reports
// whether its batch path can run. A Source table must carry column
// segments, the only pages the zone sweep reads; the leaf shows them as a
// ColumnarScan. A source-less TVF (the federated sweep) shows its own
// Access label, if any.
func tvfAccessPath(t *TVF) (*accessPathOp, bool) {
	if t.Source == nil {
		if t.Access == "" {
			return nil, true
		}
		return &accessPathOp{st: opStats{est: -1}, label: t.Access}, true
	}
	ct := t.Source.Columnar()
	if ct == nil {
		return nil, false
	}
	return &accessPathOp{
		st:    opStats{est: ct.NumRows()},
		label: fmt.Sprintf("ColumnarScan %s [%d segments]", t.Source.Name, len(ct.Segments())),
	}, true
}

// zoneSweepJoinOp is the batched lateral plan: it drains the outer input,
// evaluates every row's TVF arguments into one probe list, answers the
// whole list with a single TVF.Batch call (the batched zone sweep — one
// synchronized pass per zone instead of one descent per probe), then
// replays the buffered per-probe hits in outer-row order. Because Batch
// preserves Fn's per-probe row order, the emitted stream is bit-identical
// to tvfApplyOp's.
type zoneSweepJoinOp struct {
	st      opStats
	left    physOp
	access  *accessPathOp // display-only
	tvf     *TVF
	name    string
	alias   string
	args    []Expr // for display
	on      Expr   // for display
	argFns  []evalFn
	onFn    condFn
	cc      *cancelCheck
	started bool
	lrows   [][]Value
	hits    [][]Value // per outer row: flat hit rows, width len(tvf.Cols)
	scratch []Value   // combined-row scratch, reused per emission
	li      int
	mi      int
}

func (o *zoneSweepJoinOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if !o.started {
		o.started = true
		lrows, err := drainOp(o.left)
		if err != nil {
			return nil, err
		}
		o.lrows = lrows
		probes := make([][]Value, len(lrows))
		for i, lr := range lrows {
			if probes[i], err = evalArgs(o.argFns, lr); err != nil {
				return nil, err
			}
		}
		// One Batch call answers every probe; per-probe hits buffer into a
		// flat run of fixed-width rows (the emit slice is only valid during
		// the call, so the values copy here, once).
		o.hits = make([][]Value, len(lrows))
		if len(probes) > 0 {
			err = o.tvf.Batch(o.cc.execCtx(), probes, func(pi int, row []Value) {
				o.hits[pi] = append(o.hits[pi], row...)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	w := len(o.tvf.Cols)
	for {
		if err := o.cc.tick(); err != nil {
			return nil, err
		}
		if o.li >= len(o.lrows) {
			return nil, nil
		}
		lr := o.lrows[o.li]
		hits := o.hits[o.li]
		if o.mi == 0 && len(hits) > 0 {
			// The outer prefix of the combined row is constant across this
			// row's hits: copy it once, then only the hit columns per match.
			o.scratch = append(o.scratch[:0], lr...)
			for i := 0; i < w; i++ {
				o.scratch = append(o.scratch, Value{})
			}
		}
		for o.mi*w < len(hits) {
			copy(o.scratch[len(lr):], hits[o.mi*w:(o.mi+1)*w])
			o.mi++
			if ok, err := holds(o.onFn, o.scratch); !ok {
				if err != nil {
					return nil, err
				}
				continue
			}
			o.st.actual++
			return o.scratch, nil // borrowed: scratch reused per row
		}
		o.hits[o.li] = nil // replayed; let the buffer go
		o.li++
		o.mi = 0
	}
}
func (o *zoneSweepJoinOp) close() { o.left.close() }
func (o *zoneSweepJoinOp) describe() string {
	d := fmt.Sprintf("ZoneSweepJoin %s(%s)", o.name, exprList(o.args))
	if o.alias != "" && !strings.EqualFold(o.alias, o.name) {
		d += " AS " + o.alias
	}
	if o.on != nil {
		d += " on " + exprString(o.on)
	}
	return d
}
func (o *zoneSweepJoinOp) children() []physOp {
	if o.access != nil {
		return []physOp{o.left, o.access}
	}
	return []physOp{o.left}
}
func (o *zoneSweepJoinOp) stats() *opStats { return &o.st }

// nestedLoopJoinOp joins the streamed left input against a materialised
// right side: inner (ON optional), cross, or left-outer with NULL padding.
type nestedLoopJoinOp struct {
	st       opStats
	left     physOp
	right    physOp
	kind     joinKind
	on       Expr   // for display
	onFn     condFn // over the combined row
	started  bool
	rows     [][]Value
	rightLen int
	leftRow  []Value
	ri       int
	matched  bool
}

func (o *nestedLoopJoinOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if !o.started {
		o.started = true
		rows, err := drainOp(o.right)
		o.right.close()
		if err != nil {
			return nil, err
		}
		o.rows = rows
	}
	for {
		if o.leftRow == nil {
			row, err := o.left.next()
			if err != nil || row == nil {
				return nil, err
			}
			// Held across next() calls while the right side replays; the
			// source's buffer is reused, so copy.
			o.leftRow = append([]Value(nil), row...)
			o.ri = 0
			o.matched = false
		}
		for o.ri < len(o.rows) {
			r := o.rows[o.ri]
			o.ri++
			combined := append(append([]Value(nil), o.leftRow...), r...)
			if ok, err := holds(o.onFn, combined); !ok {
				if err != nil {
					return nil, err
				}
				continue
			}
			o.matched = true
			o.st.actual++
			return combined, nil
		}
		if o.kind == joinLeft && !o.matched {
			combined := append([]Value(nil), o.leftRow...)
			for i := 0; i < o.rightLen; i++ {
				combined = append(combined, Null())
			}
			o.leftRow = nil
			o.st.actual++
			return combined, nil
		}
		o.leftRow = nil
	}
}
func (o *nestedLoopJoinOp) close() {
	o.left.close()
	if !o.started {
		o.right.close()
	}
}
func (o *nestedLoopJoinOp) describe() string {
	kind := "inner"
	switch o.kind {
	case joinCross:
		kind = "cross"
	case joinLeft:
		kind = "left"
	}
	d := "NestedLoopJoin [" + kind + "]"
	if o.on != nil {
		d += " on " + exprString(o.on)
	}
	return d
}
func (o *nestedLoopJoinOp) children() []physOp { return []physOp{o.left, o.right} }
func (o *nestedLoopJoinOp) stats() *opStats    { return &o.st }

// hashJoinOp builds a hash table on the right side's equi-key and probes
// it with the left stream; residual ON conjuncts re-check per match.
type hashJoinOp struct {
	st        opStats
	left      physOp
	right     physOp
	leftKeys  []evalFn
	rightKeys []evalFn
	residual  condFn // over the combined row
	on        Expr   // original ON, for display
	started   bool
	buckets   map[string][][]Value
	leftRow   []Value
	matches   [][]Value
	mi        int
}

func (o *hashJoinOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if !o.started {
		o.started = true
		rows, err := drainOp(o.right)
		o.right.close()
		if err != nil {
			return nil, err
		}
		o.buckets = make(map[string][][]Value, len(rows))
		for _, r := range rows {
			key, null, err := joinKey(o.rightKeys, r)
			if err != nil {
				return nil, err
			}
			if null {
				continue
			}
			o.buckets[key] = append(o.buckets[key], r)
		}
	}
	for {
		for o.mi < len(o.matches) {
			r := o.matches[o.mi]
			o.mi++
			combined := append(append([]Value(nil), o.leftRow...), r...)
			if ok, err := holds(o.residual, combined); !ok {
				if err != nil {
					return nil, err
				}
				continue
			}
			o.st.actual++
			return combined, nil
		}
		row, err := o.left.next()
		if err != nil || row == nil {
			return nil, err
		}
		// Held across next() calls while its matches replay; copy.
		o.leftRow = append(o.leftRow[:0], row...)
		key, null, err := joinKey(o.leftKeys, o.leftRow)
		if err != nil {
			return nil, err
		}
		if null {
			o.matches = nil
			o.mi = 0
			continue
		}
		o.matches = o.buckets[key]
		o.mi = 0
	}
}
func (o *hashJoinOp) close() {
	o.left.close()
	if !o.started {
		o.right.close()
	}
}
func (o *hashJoinOp) describe() string {
	return "HashJoin on " + exprString(o.on)
}
func (o *hashJoinOp) children() []physOp { return []physOp{o.left, o.right} }
func (o *hashJoinOp) stats() *opStats    { return &o.st }

// ---------------------------------------------------------------------------
// Row-shaping operators

// filterOp drops rows whose predicate is not true.
type filterOp struct {
	st   opStats
	src  physOp
	pred Expr // for display
	test condFn
}

func (o *filterOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	for {
		row, err := o.src.next()
		if err != nil || row == nil {
			return nil, err
		}
		t, err := o.test(row)
		if err != nil {
			return nil, err
		}
		if t == triTrue {
			o.st.actual++
			return row, nil
		}
	}
}
func (o *filterOp) close()             { o.src.close() }
func (o *filterOp) describe() string   { return "Filter " + exprString(o.pred) }
func (o *filterOp) children() []physOp { return []physOp{o.src} }
func (o *filterOp) stats() *opStats    { return &o.st }

// projectOp evaluates the compiled select list per source row. When the
// statement has ORDER BY, each emitted row carries the precomputed sort
// keys as hidden trailing values (items referencing projection aliases or
// ordinals reuse the projected value; everything else evaluates over the
// source row, exactly as the executor always has); sortOp consumes and
// strips them. Emitted rows are caller-owned.
type projectOp struct {
	st       opStats
	src      physOp
	items    []evalFn
	names    []string // display names
	orderFns []evalFn // hidden sort keys; nil where aliasIdx names the item
	aliasIdx []int
	fastIdx  []int // non-nil: every item is a bare column, no ORDER BY
	arena    []Value
}

// allocRow carves one caller-owned output row from a block arena: result
// rows are retained (by Rows, Sort, the user), so they must be fresh
// memory, but a malloc per row is pure overhead — one block serves 256.
func (o *projectOp) allocRow(w int) []Value {
	if len(o.arena) < w {
		o.arena = make([]Value, 256*w)
	}
	out := o.arena[:w:w]
	o.arena = o.arena[w:]
	return out
}

func (o *projectOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	row, err := o.src.next()
	if err != nil || row == nil {
		return nil, err
	}
	if o.fastIdx != nil {
		// Pure column projection: copy slots, skip the evaluator.
		out := o.allocRow(len(o.fastIdx))
		for i, ix := range o.fastIdx {
			out[i] = row[ix]
		}
		o.st.actual++
		return out, nil
	}
	n := len(o.items)
	out := o.allocRow(n + len(o.orderFns))
	for i, f := range o.items {
		v, err := f(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	for i, f := range o.orderFns {
		if ai := o.aliasIdx[i]; ai >= 0 {
			out[n+i] = out[ai]
			continue
		}
		v, err := f(row)
		if err != nil {
			return nil, err
		}
		out[n+i] = v
	}
	o.st.actual++
	return out, nil
}
func (o *projectOp) close() { o.src.close() }
func (o *projectOp) describe() string {
	return "Project " + strings.Join(o.names, ", ")
}
func (o *projectOp) children() []physOp { return []physOp{o.src} }
func (o *projectOp) stats() *opStats    { return &o.st }

// aggregateOp groups the source rows and evaluates the rewritten select
// list, HAVING, and hidden ORDER BY keys per group. Groups emit in
// first-seen order, matching the historical executor. Everything it
// evaluates is compiled at planning (lowerAggregate): group keys and
// aggregate arguments over the source row; outputs, HAVING and sort keys
// over the group row — the group's first source row followed by its
// aggregate results, which aggRef slots address.
type aggregateOp struct {
	st       opStats
	src      physOp
	stmt     *SelectStmt
	items    []projItem // original expressions, for display
	width    int        // source row width
	groupBy  []evalFn
	aggs     []*aggSpec
	outs     []evalFn
	having   condFn
	orderFns []evalFn
	started  bool
	out      [][]Value
	i        int
}

// lowerAggregate plans the grouping operator over src: aggregate calls
// rewrite to aggRef slots, then every expression compiles once.
func (db *DB) lowerAggregate(src physOp, lp *logicalPlan, params []Value) *aggregateOp {
	stmt := lp.stmt
	var calls []*Call
	outs := make([]Expr, len(lp.items))
	for i, it := range lp.items {
		outs[i] = rewriteAggs(it.expr, &calls)
	}
	having := rewriteAggs(stmt.Having, &calls)
	order := make([]Expr, len(stmt.OrderBy))
	for i, ord := range stmt.OrderBy {
		order[i] = rewriteAggs(ord.Expr, &calls)
	}
	row := &compiler{sch: lp.sch, params: params, db: db}
	grp := &compiler{sch: lp.sch, params: params, db: db, aggBase: len(lp.sch)}
	aggs := make([]*aggSpec, len(calls))
	for i, c := range calls {
		aggs[i] = newAggSpec(c, row)
	}
	return &aggregateOp{
		st: opStats{est: -1}, src: src, stmt: stmt, items: lp.items, width: len(lp.sch),
		groupBy: row.compileAll(stmt.GroupBy), aggs: aggs,
		outs: grp.compileAll(outs), having: grp.pred(having), orderFns: grp.compileAll(order),
	}
}

func (o *aggregateOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if !o.started {
		o.started = true
		if err := o.run(); err != nil {
			return nil, err
		}
	}
	if o.i >= len(o.out) {
		return nil, nil
	}
	r := o.out[o.i]
	o.i++
	o.st.actual++
	return r, nil
}

// aggGroup is one group: its row (first source row, then a slot per
// aggregate result) and its running aggregates.
type aggGroup struct {
	row  []Value
	aggs []aggState
}

func (o *aggregateOp) newGroup(first []Value) *aggGroup {
	g := &aggGroup{row: make([]Value, o.width+len(o.aggs)), aggs: make([]aggState, len(o.aggs))}
	copy(g.row, first)
	for i, s := range o.aggs {
		g.aggs[i] = newAggState(s)
	}
	return g
}

// run is the grouping pass: one scan of the source, one aggState set per
// group, then per-group evaluation of the compiled outputs.
func (o *aggregateOp) run() error {
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	var key []byte
	for {
		row, err := o.src.next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key = key[:0]
		for _, g := range o.groupBy {
			v, err := g(row)
			if err != nil {
				return err
			}
			key = append(key, v.GroupKey()...)
			key = append(key, 0)
		}
		grp, ok := groups[string(key)]
		if !ok {
			grp = o.newGroup(row)
			groups[string(key)] = grp
			order = append(order, grp)
		}
		for i := range grp.aggs {
			if err := grp.aggs[i].add(row); err != nil {
				return err
			}
		}
	}

	// A grand aggregate over zero rows still yields one group, its source
	// columns NULL.
	if len(order) == 0 && len(o.groupBy) == 0 {
		order = append(order, o.newGroup(nil))
	}

	for _, grp := range order {
		for i := range grp.aggs {
			grp.row[o.width+i] = grp.aggs[i].result()
		}
		if ok, err := holds(o.having, grp.row); !ok {
			if err != nil {
				return err
			}
			continue
		}
		out := make([]Value, len(o.outs), len(o.outs)+len(o.orderFns))
		for i, f := range o.outs {
			v, err := f(grp.row)
			if err != nil {
				return err
			}
			out[i] = v
		}
		for _, f := range o.orderFns {
			v, err := f(grp.row)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		o.out = append(o.out, out)
	}
	return nil
}

func (o *aggregateOp) close() { o.src.close() }
func (o *aggregateOp) describe() string {
	var calls []*Call
	for _, it := range o.items {
		rewriteAggs(it.expr, &calls)
	}
	rewriteAggs(o.stmt.Having, &calls)
	for _, ord := range o.stmt.OrderBy {
		rewriteAggs(ord.Expr, &calls)
	}
	parts := make([]string, len(calls))
	for i, c := range calls {
		parts[i] = exprString(c)
	}
	d := "Aggregate " + strings.Join(parts, ", ")
	if len(o.stmt.GroupBy) > 0 {
		d += " GROUP BY " + exprList(o.stmt.GroupBy)
	}
	if o.stmt.Having != nil {
		d += " HAVING " + exprString(o.stmt.Having)
	}
	return d
}
func (o *aggregateOp) children() []physOp { return []physOp{o.src} }
func (o *aggregateOp) stats() *opStats    { return &o.st }

// sortOp materialises its input, stably sorts on the hidden trailing keys
// projectOp/aggregateOp appended, and emits the visible prefix.
type sortOp struct {
	st      opStats
	src     physOp
	order   []OrderItem
	visible int
	cc      *cancelCheck
	started bool
	rows    [][]Value
	i       int
}

func (o *sortOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if err := o.cc.tick(); err != nil {
		return nil, err
	}
	if !o.started {
		o.started = true
		// The source is always a Project or Aggregate, whose rows are
		// caller-owned: retain without copying.
		rows, err := drainOwned(o.src)
		if err != nil {
			return nil, err
		}
		// One poll between the drain and the sort: a statement cancelled
		// during the (uninterruptible) sort stops before emitting.
		if err := o.cc.poll(); err != nil {
			return nil, err
		}
		sort.SliceStable(rows, func(a, b int) bool {
			ka := rows[a][o.visible:]
			kb := rows[b][o.visible:]
			for i, ord := range o.order {
				c := CompareForSort(ka[i], kb[i])
				if c == 0 {
					continue
				}
				if ord.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		o.rows = rows
	}
	if o.i >= len(o.rows) {
		return nil, nil
	}
	r := o.rows[o.i][:o.visible]
	o.i++
	o.st.actual++
	return r, nil
}
func (o *sortOp) close() { o.src.close() }
func (o *sortOp) describe() string {
	parts := make([]string, len(o.order))
	for i, ord := range o.order {
		parts[i] = exprString(ord.Expr)
		if ord.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}
func (o *sortOp) children() []physOp { return []physOp{o.src} }
func (o *sortOp) stats() *opStats    { return &o.st }

// distinctOp streams first occurrences of each projected row.
type distinctOp struct {
	st   opStats
	src  physOp
	seen map[string]bool
}

func (o *distinctOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if o.seen == nil {
		o.seen = make(map[string]bool)
	}
	for {
		row, err := o.src.next()
		if err != nil || row == nil {
			return nil, err
		}
		var sb strings.Builder
		for _, v := range row {
			sb.WriteString(v.GroupKey())
			sb.WriteByte(0)
		}
		k := sb.String()
		if !o.seen[k] {
			o.seen[k] = true
			o.st.actual++
			return row, nil
		}
	}
}
func (o *distinctOp) close()             { o.src.close() }
func (o *distinctOp) describe() string   { return "Distinct" }
func (o *distinctOp) children() []physOp { return []physOp{o.src} }
func (o *distinctOp) stats() *opStats    { return &o.st }

// limitOp stops after n rows. limit keeps the declared bound for display;
// n counts down during execution.
type limitOp struct {
	st    opStats
	src   physOp
	limit int64
	n     int64
}

func (o *limitOp) next() ([]Value, error) {
	if o.st.timed {
		defer o.st.timeFrom(time.Now())
	}
	o.st.ran = true
	if o.n <= 0 {
		return nil, nil
	}
	row, err := o.src.next()
	if err != nil || row == nil {
		return nil, err
	}
	o.n--
	o.st.actual++
	return row, nil
}
func (o *limitOp) close()             { o.src.close() }
func (o *limitOp) describe() string   { return fmt.Sprintf("Limit %d", o.limit) }
func (o *limitOp) children() []physOp { return []physOp{o.src} }
func (o *limitOp) stats() *opStats    { return &o.st }

// ---------------------------------------------------------------------------
// The physical planner

// planSelect compiles a SELECT into its physical operator tree and output
// column names. Construction performs no I/O; the first next() does. The
// context threads into every row-producing operator (and through
// TVF.Batch into the zone sweeps), so cancelling it stops the
// statement at row-batch granularity.
func (db *DB) planSelect(ctx context.Context, stmt *SelectStmt, params []Value, snap *Snapshot) (physOp, []string, error) {
	lp, err := db.buildLogical(stmt, params, snap)
	if err != nil {
		return nil, nil, err
	}
	cc := newCancelCheck(ctx)
	op, err := db.lowerSource(lp.source, params, cc)
	if err != nil {
		return nil, nil, err
	}
	// Every expression the operators evaluate compiles once here: column
	// references resolve to row slots and parameters fold, not per row.
	comp := &compiler{sch: lp.sch, params: params, db: db}
	if stmt.Where != nil {
		op = &filterOp{st: opStats{est: -1}, src: op, pred: stmt.Where, test: comp.pred(stmt.Where)}
	}
	columns := make([]string, len(lp.items))
	for i, it := range lp.items {
		columns[i] = it.name
	}
	if lp.aggregated {
		op = db.lowerAggregate(op, lp, params)
	} else {
		items := make([]evalFn, len(lp.items))
		for i, it := range lp.items {
			items[i] = comp.compile(it.expr)
		}
		aliasIdx := orderAliasIndexes(stmt.OrderBy, lp.items)
		orderFns := make([]evalFn, len(stmt.OrderBy))
		for i, ord := range stmt.OrderBy {
			if aliasIdx[i] < 0 {
				orderFns[i] = comp.compile(ord.Expr)
			}
		}
		op = &projectOp{
			st: opStats{est: childEst(op)}, src: op, items: items,
			names: columns, orderFns: orderFns, aliasIdx: aliasIdx,
			fastIdx: pureColumnIndexes(lp.items, stmt.OrderBy, lp.sch),
		}
	}
	if len(stmt.OrderBy) > 0 {
		op = &sortOp{st: opStats{est: childEst(op)}, src: op, order: stmt.OrderBy, visible: len(lp.items), cc: cc}
	}
	if stmt.Distinct {
		op = &distinctOp{st: opStats{est: -1}, src: op}
	}
	if stmt.Limit >= 0 {
		est := childEst(op)
		if est < 0 || est > stmt.Limit {
			est = stmt.Limit
		}
		op = &limitOp{st: opStats{est: est}, src: op, limit: stmt.Limit, n: stmt.Limit}
	}
	return op, columns, nil
}

func childEst(op physOp) int64 { return op.stats().est }

// pureColumnIndexes returns the source slot of every select item when the
// whole list is bare resolvable columns and no hidden sort keys are
// needed — the shape of SELECT col, col, ... — enabling projectOp's
// copy-only fast path. Any expression (or any ORDER BY) returns nil.
func pureColumnIndexes(items []projItem, order []OrderItem, sch schema) []int {
	if len(order) > 0 {
		return nil
	}
	idx := make([]int, len(items))
	for i, it := range items {
		c, ok := it.expr.(*ColumnRef)
		if !ok {
			return nil
		}
		ix, err := sch.resolve(c.Table, c.Name)
		if err != nil {
			return nil
		}
		idx[i] = ix
	}
	return idx
}

// lowerSource turns the bound FROM tree into physical operators, applying
// the access-path and join rules.
func (db *DB) lowerSource(n logNode, params []Value, cc *cancelCheck) (physOp, error) {
	met := db.metrics()
	switch x := n.(type) {
	case *logValues:
		return &valuesOp{st: opStats{est: 1}, rows: [][]Value{{}}}, nil
	case *logScan:
		// The segments come from the scan's own pinned view: they are
		// exactly the rows the snapshot reads.
		if ct := x.tv.Columnar(); ct != nil {
			op := newColumnarScan(x.tv, ct, x.alias, x.lo, x.hi, x.needed)
			op.cc = cc
			met.rule("ColumnarScan")
			return op, nil
		}
		if x.lo.IsNull() && x.hi.IsNull() {
			met.rule("SeqScan")
			return &seqScanOp{st: opStats{est: x.tv.NumRows()}, tv: x.tv, alias: x.alias, cols: x.prefix, cc: cc}, nil
		}
		// No histograms: the bounded row count is unknown, and printing the
		// full table count against a range scan would misread in EXPLAIN.
		met.rule("RangeScan")
		return &rangeScanOp{st: opStats{est: -1}, tv: x.tv, alias: x.alias, lo: x.lo, hi: x.hi, cols: x.prefix, cc: cc}, nil
	case *logTVF:
		// Non-lateral: constant arguments, evaluated once at first next.
		met.rule("TVFScan")
		comp := &compiler{params: params, db: db}
		return &tvfScanOp{st: opStats{est: -1}, tvf: x.tvf, name: x.name, alias: x.alias, args: x.args, argFns: comp.compileAll(x.args)}, nil
	case *logJoin:
		return db.lowerJoin(x, params, cc)
	}
	return nil, fmt.Errorf("sqldb: cannot lower %T", n)
}

func (db *DB) lowerJoin(j *logJoin, params []Value, cc *cancelCheck) (physOp, error) {
	left, err := db.lowerSource(j.left, params, cc)
	if err != nil {
		return nil, err
	}
	leftSch := j.left.schema()
	combined := j.sch
	onLeft := &compiler{sch: leftSch, params: params, db: db}
	onBoth := &compiler{sch: combined, params: params, db: db}
	if tvf, ok := j.right.(*logTVF); ok && tvf.lateral {
		args, on := onLeft.compileAll(tvf.args), onBoth.pred(j.on)
		if tvf.tvf.Batch != nil {
			if access, ok := tvfAccessPath(tvf.tvf); ok {
				db.metrics().rule("ZoneSweepJoin")
				return &zoneSweepJoinOp{
					st: opStats{est: -1}, left: left, access: access,
					tvf: tvf.tvf, name: tvf.name, alias: tvf.alias, args: tvf.args, on: j.on,
					argFns: args, onFn: on, cc: cc,
				}, nil
			}
		}
		db.metrics().rule("TVFApply")
		return &tvfApplyOp{
			st: opStats{est: -1}, left: left,
			tvf: tvf.tvf, name: tvf.name, alias: tvf.alias, args: tvf.args, on: j.on,
			argFns: args, onFn: on,
		}, nil
	}
	right, err := db.lowerSource(j.right, params, cc)
	if err != nil {
		left.close()
		return nil, err
	}
	rightSch := j.right.schema()
	switch j.kind {
	case joinCross, joinLeft:
		db.metrics().rule("NestedLoopJoin")
		return &nestedLoopJoinOp{
			st: opStats{est: -1}, left: left, right: right, kind: j.kind,
			on: j.on, onFn: onBoth.pred(j.on), rightLen: len(rightSch),
		}, nil
	default: // inner
		leftKeys, rightKeys, residual := splitEquiJoin(j.on, leftSch, rightSch)
		if len(leftKeys) > 0 {
			db.metrics().rule("HashJoin")
			onRight := &compiler{sch: rightSch, params: params, db: db}
			return &hashJoinOp{
				st: opStats{est: -1}, left: left, right: right,
				leftKeys: onLeft.compileAll(leftKeys), rightKeys: onRight.compileAll(rightKeys),
				residual: onBoth.pred(residual), on: j.on,
			}, nil
		}
		db.metrics().rule("NestedLoopJoin")
		return &nestedLoopJoinOp{
			st: opStats{est: -1}, left: left, right: right, kind: joinInner,
			on: j.on, onFn: onBoth.pred(j.on), rightLen: len(rightSch),
		}, nil
	}
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering

// renderPlan formats the operator tree, one line per operator, with box
// drawing for structure and the row-count annotations: the planner's
// estimate always, the actual emitted count when the plan has run
// (EXPLAIN ANALYZE).
func renderPlan(op physOp, analyzed bool) []string {
	var lines []string
	var walk func(op physOp, prefix string, childPrefix string)
	walk = func(op physOp, prefix, childPrefix string) {
		lines = append(lines, prefix+op.describe()+planAnnotation(op, analyzed))
		kids := op.children()
		for i, k := range kids {
			if i == len(kids)-1 {
				walk(k, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(k, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	walk(op, "", "")
	return lines
}

func planAnnotation(op physOp, analyzed bool) string {
	st := op.stats()
	// Wall time renders outside the row-count bracket so the bracket
	// stays stable for tools (and tests) matching on it.
	timing := ""
	if analyzed && st.ran && st.timed {
		timing = fmt.Sprintf(" (%.3f ms)", float64(st.nanos)/1e6)
	}
	switch {
	case analyzed && st.ran && st.est >= 0:
		return fmt.Sprintf("  [est %d, actual %d rows]%s", st.est, st.actual, timing)
	case analyzed && st.ran:
		return fmt.Sprintf("  [actual %d rows]%s", st.actual, timing)
	case st.est >= 0:
		return fmt.Sprintf("  [est %d rows]", st.est)
	}
	return ""
}
