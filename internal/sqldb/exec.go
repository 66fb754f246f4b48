package sqldb

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// SELECT execution sits on the plan layer: execSelect compiles the
// statement with planSelect (plan.go binds, physical.go lowers) and drains
// the operator tree. This file keeps the result types and the helpers the
// planner shares — conjunct analysis, clustered-key bound extraction,
// equi-join splitting, select-list expansion.

// Rows is a fully materialised query result.
type Rows struct {
	Columns []string
	data    [][]Value
	i       int
}

// Next advances to the following row, returning false after the last one.
func (r *Rows) Next() bool {
	if r.i >= len(r.data) {
		return false
	}
	r.i++
	return true
}

// Row returns the current row after a successful Next.
func (r *Rows) Row() []Value { return r.data[r.i-1] }

// Len returns the number of rows in the result.
func (r *Rows) Len() int { return len(r.data) }

// All returns every row.
func (r *Rows) All() [][]Value { return r.data }

// execSelect runs a SELECT and materialises the result. The whole
// statement — planning and execution — runs against one snapshot taken
// here, released when the result is materialised.
func (db *DB) execSelect(ctx context.Context, stmt *SelectStmt, params []Value) (*Rows, error) {
	snap := db.Snapshot()
	defer snap.Close()
	op, columns, err := db.planSelect(ctx, stmt, params, snap)
	if err != nil {
		return nil, err
	}
	defer op.close()
	// The plan's root is always a Project or Aggregate (possibly wrapped
	// in Sort/Distinct/Limit), so rows arrive caller-owned: no copy here.
	data, err := drainOwned(op)
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: columns, data: data}, nil
}

// RowIter streams a SELECT's output row by row from the physical plan,
// never buffering the whole result set: the cursor-friendly twin of Rows
// for scans over millions of rows. Operators that are inherently blocking
// (Sort, Aggregate, the build side of a join) still materialise their own
// inputs; a scan-filter-project pipeline streams end to end.
//
// The iterator must be Closed (closing releases the plan's cursors); Row's
// slice is owned by the caller until the following Next.
type RowIter struct {
	cols   []string
	op     physOp
	snap   *Snapshot // the query's pinned snapshot; released by Close
	row    []Value
	err    error
	closed bool

	// Attached metrics: rows are tallied locally per Next and flushed as
	// one batch at Close, so streaming pays no per-row metric work.
	met   *dbMetrics
	start time.Time
	n     int64
}

// Columns returns the output column names.
func (it *RowIter) Columns() []string { return it.cols }

// Next advances to the following row, returning false at the end of the
// stream or on error (check Err).
func (it *RowIter) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	row, err := it.op.next()
	if err != nil {
		it.err = err
		return false
	}
	if row == nil {
		return false
	}
	it.n++
	it.row = row
	return true
}

// Row returns the current row after a successful Next.
func (it *RowIter) Row() []Value { return it.row }

// Err returns the first error encountered by Next.
func (it *RowIter) Err() error { return it.err }

// Close releases the plan's resources and the query's snapshot. Safe to
// call more than once.
func (it *RowIter) Close() {
	if !it.closed {
		it.closed = true
		it.op.close()
		if it.snap != nil {
			it.snap.Close()
		}
		if it.met != nil {
			it.met.statement("select", it.start)
			it.met.out(it.n)
		}
	}
}

// ---------------------------------------------------------------------------
// Predicate analysis shared by logical planning

// conjuncts flattens an AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// rangeBounds extracts inclusive [lo, hi] bounds on the table's leading
// clustered-key column from the WHERE conjuncts. Pushdown is an
// optimisation only: every predicate is still re-checked by the filter, so
// strict bounds may be treated as inclusive. Unqualified column names are
// only trusted when the query has a single FROM item.
func rangeBounds(where Expr, alias string, tv TableView, params []Value, singleTable bool) (lo, hi Value) {
	lo, hi = Null(), Null()
	keyCols := tv.KeyCols()
	if where == nil || len(keyCols) == 0 {
		return lo, hi
	}
	leading := tv.Table().Cols[keyCols[0]].Name
	comp := &compiler{params: params}
	matches := func(e Expr) bool {
		c, ok := e.(*ColumnRef)
		if !ok || !strings.EqualFold(c.Name, leading) {
			return false
		}
		if c.Table == "" {
			return singleTable
		}
		return strings.EqualFold(c.Table, alias)
	}
	constVal := func(e Expr) (Value, bool) {
		switch e.(type) {
		case *Literal, *Param:
		default:
			return Value{}, false
		}
		k := comp.node(e)
		if !k.konst || k.val.IsNull() {
			return Value{}, false
		}
		return k.val, true
	}
	tightenLo := func(v Value) {
		if lo.IsNull() || CompareForSort(v, lo) > 0 {
			lo = v
		}
	}
	tightenHi := func(v Value) {
		if hi.IsNull() || CompareForSort(v, hi) < 0 {
			hi = v
		}
	}
	for _, c := range conjuncts(where) {
		switch x := c.(type) {
		case *Between:
			if x.Not || !matches(x.X) {
				continue
			}
			if v, ok := constVal(x.Lo); ok {
				tightenLo(v)
			}
			if v, ok := constVal(x.Hi); ok {
				tightenHi(v)
			}
		case *Binary:
			col, val := x.L, x.R
			op := x.Op
			if !matches(col) {
				// try flipped: literal op column
				if matches(x.R) {
					col, val = x.R, x.L
					switch op {
					case "<":
						op = ">"
					case "<=":
						op = ">="
					case ">":
						op = "<"
					case ">=":
						op = "<="
					}
				} else {
					continue
				}
			}
			_ = col
			v, ok := constVal(val)
			if !ok {
				continue
			}
			switch op {
			case "=":
				tightenLo(v)
				tightenHi(v)
			case ">", ">=":
				tightenLo(v)
			case "<", "<=":
				tightenHi(v)
			}
		}
	}
	return lo, hi
}

// splitEquiJoin partitions an inner-join ON condition into hash keys and a
// residual predicate. Returns empty keys when no usable equality exists.
func splitEquiJoin(on Expr, left, right schema) (leftKeys, rightKeys []Expr, residual Expr) {
	if on == nil {
		return nil, nil, nil
	}
	var rest []Expr
	for _, c := range conjuncts(on) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			rest = append(rest, c)
			continue
		}
		lSide := sideOf(b.L, left, right)
		rSide := sideOf(b.R, left, right)
		switch {
		case lSide == 1 && rSide == 2:
			leftKeys = append(leftKeys, b.L)
			rightKeys = append(rightKeys, b.R)
		case lSide == 2 && rSide == 1:
			leftKeys = append(leftKeys, b.R)
			rightKeys = append(rightKeys, b.L)
		default:
			rest = append(rest, c)
		}
	}
	residual = andAll(rest)
	return leftKeys, rightKeys, residual
}

// sideOf classifies which input an expression's columns come from:
// 0 none, 1 left, 2 right, 3 both/ambiguous.
func sideOf(e Expr, left, right schema) int {
	side := 0
	walkExpr(e, func(x Expr) {
		c, ok := x.(*ColumnRef)
		if !ok {
			return
		}
		_, lerr := left.resolve(c.Table, c.Name)
		_, rerr := right.resolve(c.Table, c.Name)
		switch {
		case lerr == nil && rerr == nil:
			side |= 3
		case lerr == nil:
			side |= 1
		case rerr == nil:
			side |= 2
		default:
			side |= 3 // unknown: be conservative
		}
	})
	return side
}

func andAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// joinKey renders row's equi-key; null=true when any component is NULL
// (NULLs never join).
func joinKey(keys []evalFn, row []Value) (string, bool, error) {
	var sb strings.Builder
	for _, k := range keys {
		v, err := k(row)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		sb.WriteString(v.GroupKey())
		sb.WriteByte(0)
	}
	return sb.String(), false, nil
}

// ---------------------------------------------------------------------------
// Select-list helpers

type projItem struct {
	expr Expr
	name string
}

// expandItems resolves stars against the source schema.
func expandItems(items []SelectItem, sch schema) ([]projItem, error) {
	var out []projItem
	for i, item := range items {
		if item.Star {
			matched := false
			for _, c := range sch {
				if item.StarTable != "" && !strings.EqualFold(item.StarTable, c.alias) {
					continue
				}
				out = append(out, projItem{
					expr: &ColumnRef{Table: c.alias, Name: c.name},
					name: c.name,
				})
				matched = true
			}
			if !matched {
				return nil, fmt.Errorf("sqldb: %s.* matches no columns", item.StarTable)
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if c, ok := item.Expr.(*ColumnRef); ok {
				name = c.Name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		out = append(out, projItem{expr: item.Expr, name: name})
	}
	return out, nil
}

// orderAliasIndexes maps each ORDER BY item to a projection index when it is
// a bare reference to a projection alias (or ordinal), else -1.
func orderAliasIndexes(order []OrderItem, items []projItem) []int {
	out := make([]int, len(order))
	for i, o := range order {
		out[i] = -1
		if c, ok := o.Expr.(*ColumnRef); ok && c.Table == "" {
			for j, it := range items {
				if strings.EqualFold(it.name, c.Name) {
					out[i] = j
					break
				}
			}
		}
		if l, ok := o.Expr.(*Literal); ok && l.Val.T == TInt {
			if n := int(l.Val.I); n >= 1 && n <= len(items) {
				out[i] = n - 1
			}
		}
	}
	return out
}

// validateColumns resolves every column reference in the expressions
// against the source schema, reporting the first unknown or ambiguous one.
func validateColumns(sch schema, exprs []Expr) error {
	var firstErr error
	for _, e := range exprs {
		walkExpr(e, func(x Expr) {
			if firstErr != nil {
				return
			}
			if c, ok := x.(*ColumnRef); ok {
				if _, err := sch.resolve(c.Table, c.Name); err != nil {
					firstErr = err
				}
			}
		})
	}
	return firstErr
}
