package sqldb

import (
	"fmt"
	"strings"
)

// Logical planning: the first half of query compilation. buildLogical
// binds a parsed SelectStmt against the catalog — resolving tables, TVFs,
// aliases and output schemas, expanding stars, validating column
// references, classifying lateral TVF calls, and extracting clustered-key
// range bounds — without choosing any physical access path. The result is
// a small tree of logNodes plus the select-list metadata; physical.go
// lowers it to executable operators (and EXPLAIN prints those).
//
// Splitting binding from physical choice is what lets one logical shape
// carry several plans: a logScan lowers to a SeqScan, a RangeScan, or a
// ColumnarScan; a lateral logTVF join lowers to a per-row TVFApply or a
// batched ZoneSweepJoin. Rules live in physical.go (see lowerSource).

// logNode is one node of the bound FROM tree.
type logNode interface {
	schema() schema
}

// logValues is the FROM-less source: exactly one empty row.
type logValues struct{ sch schema }

func (n *logValues) schema() schema { return n.sch }

// logScan is a bound base-table reference with any extracted clustered-key
// bounds (inclusive; NULL = unbounded; optimisation only, the filter
// re-checks every predicate). The scan binds a TableView — one immutable
// version resolved through the query's snapshot — so lowering and
// execution read the same rows no matter what writers publish meanwhile.
type logScan struct {
	tv     TableView
	alias  string
	lo, hi Value
	// needed marks the table columns the statement references, when that
	// set could be computed (single-table statements); nil means all. A
	// ColumnarScan uses it to decode only the touched column arrays.
	needed []bool
	// prefix is how many leading columns a row scan decodes: one past the
	// highest referenced column, set only when every column reference of
	// the statement resolved against this table (0 = all). The slots past
	// it are never read, so they stay NULL.
	prefix int
	sch    schema
}

func (n *logScan) schema() schema { return n.sch }

// logTVF is a bound table-valued function call. lateral marks calls whose
// arguments reference columns of earlier FROM items: those evaluate once
// per outer row (or batch, when the TVF supports it) rather than once per
// statement.
type logTVF struct {
	tvf     *TVF
	name    string
	alias   string
	args    []Expr
	lateral bool
	sch     schema
}

func (n *logTVF) schema() schema { return n.sch }

// logJoin combines two sources. For a lateral right side, on is the
// residual predicate applied to each combined row (inner semantics).
type logJoin struct {
	left, right logNode
	kind        joinKind
	on          Expr
	sch         schema
}

func (n *logJoin) schema() schema { return n.sch }

// logicalPlan is the bound SELECT: the source tree plus the resolved
// select list and the aggregation classification execSelect needs.
type logicalPlan struct {
	stmt       *SelectStmt
	source     logNode
	items      []projItem
	sch        schema // source schema
	aggregated bool
}

// buildLogical binds stmt against snap's catalog. It performs every
// static check the executor used to do during iterator construction —
// unknown tables and TVFs, star expansion, unknown or ambiguous columns —
// so a plan that builds is safe to print or run.
func (db *DB) buildLogical(stmt *SelectStmt, params []Value, snap *Snapshot) (*logicalPlan, error) {
	src, err := db.buildLogicalSource(stmt, params, snap)
	if err != nil {
		return nil, err
	}
	sch := src.schema()
	items, err := expandItems(stmt.Items, sch)
	if err != nil {
		return nil, err
	}
	// Static validation: unknown or ambiguous column references fail even
	// when the input is empty.
	var toCheck []Expr
	for _, it := range items {
		toCheck = append(toCheck, it.expr)
	}
	toCheck = append(toCheck, stmt.Where, stmt.Having)
	toCheck = append(toCheck, stmt.GroupBy...)
	if err := validateColumns(sch, toCheck); err != nil {
		return nil, err
	}
	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range items {
		if hasAggregate(it.expr) {
			aggregated = true
		}
	}
	for _, o := range stmt.OrderBy {
		if hasAggregate(o.Expr) {
			aggregated = true
		}
	}
	lp := &logicalPlan{stmt: stmt, source: src, items: items, sch: sch, aggregated: aggregated}
	if scan, ok := src.(*logScan); ok && len(stmt.From) == 1 {
		scan.needed, scan.prefix = neededColumns(lp, scan)
	}
	return lp, nil
}

// buildLogicalSource binds the FROM clause into a left-deep join tree,
// mirroring the join order the executor has always used.
func (db *DB) buildLogicalSource(stmt *SelectStmt, params []Value, snap *Snapshot) (logNode, error) {
	if len(stmt.From) == 0 {
		return &logValues{}, nil
	}
	single := len(stmt.From) == 1
	var root logNode
	for i, item := range stmt.From {
		n, err := db.buildLogicalItem(item, stmt.Where, params, single, schemaOf(root), snap)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// A first-item lateral TVF has no outer rows to bind to; its
			// column references already failed validation in
			// buildLogicalItem against the empty outer schema.
			root = n
			continue
		}
		combined := append(append(schema{}, root.schema()...), n.schema()...)
		if tvf, ok := n.(*logTVF); ok && tvf.lateral && item.Join == joinLeft {
			return nil, fmt.Errorf("sqldb: LEFT JOIN on a lateral call of %s is not supported", tvf.name)
		}
		root = &logJoin{left: root, right: n, kind: item.Join, on: item.On, sch: combined}
	}
	return root, nil
}

func schemaOf(n logNode) schema {
	if n == nil {
		return nil
	}
	return n.schema()
}

// buildLogicalItem binds one FROM entry. leftSch is the accumulated schema
// of the items before it, against which a lateral TVF's arguments resolve.
func (db *DB) buildLogicalItem(item FromItem, where Expr, params []Value, single bool, leftSch schema, snap *Snapshot) (logNode, error) {
	alias := strings.ToLower(item.Alias)
	if alias == "" {
		alias = strings.ToLower(item.Table)
	}
	if item.IsTVF {
		tvf, ok := snap.tvf(item.Table)
		if !ok {
			return nil, fmt.Errorf("sqldb: unknown table-valued function %s", item.Table)
		}
		sch := make(schema, len(tvf.Cols))
		for i, c := range tvf.Cols {
			sch[i] = colMeta{alias: alias, name: c.Name}
		}
		lateral := false
		for _, a := range item.Args {
			walkExpr(a, func(x Expr) {
				if _, ok := x.(*ColumnRef); ok {
					lateral = true
				}
			})
		}
		if lateral {
			// Lateral arguments must resolve against the outer schema; an
			// unresolved one is an error now, not at first evaluation.
			if err := validateColumns(leftSch, item.Args); err != nil {
				return nil, err
			}
		}
		return &logTVF{tvf: tvf, name: item.Table, alias: alias, args: item.Args, lateral: lateral, sch: sch}, nil
	}
	tv, ok := snap.View(item.Table)
	if !ok {
		return nil, fmt.Errorf("sqldb: unknown table %s", item.Table)
	}
	t := tv.Table()
	sch := make(schema, len(t.Cols))
	for i, c := range t.Cols {
		sch[i] = colMeta{alias: alias, name: c.Name}
	}
	lo, hi := rangeBounds(where, alias, tv, params, single)
	return &logScan{tv: tv, alias: alias, lo: lo, hi: hi, sch: sch}, nil
}

// neededColumns computes which columns of a single-table statement's scan
// are referenced anywhere — select list, WHERE, GROUP BY, HAVING, ORDER BY.
// Unreferenced columns need not be materialised by a columnar scan, and a
// row scan decodes only the returned prefix: through the highest
// referenced column (at least one), or 0 — all — when some reference does
// not resolve.
func neededColumns(lp *logicalPlan, scan *logScan) (needed []bool, prefix int) {
	needed = make([]bool, len(scan.sch))
	resolved := true
	mark := func(e Expr) {
		walkExpr(e, func(x Expr) {
			c, ok := x.(*ColumnRef)
			if !ok {
				return
			}
			i, err := scan.sch.resolve(c.Table, c.Name)
			if err != nil {
				resolved = false
				return
			}
			needed[i] = true
			prefix = max(prefix, i+1)
		})
	}
	for _, it := range lp.items {
		mark(it.expr)
	}
	mark(lp.stmt.Where)
	mark(lp.stmt.Having)
	for _, g := range lp.stmt.GroupBy {
		mark(g)
	}
	for _, o := range lp.stmt.OrderBy {
		mark(o.Expr)
	}
	if !resolved {
		return needed, 0
	}
	return needed, max(prefix, 1)
}

// ---------------------------------------------------------------------------
// Expression rendering for EXPLAIN

// exprString renders an expression back to SQL-ish text for plan display.
// Nested binary operands parenthesise, so the rendering is unambiguous
// without reproducing the full precedence table.
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		if x.Val.T == TString {
			return "'" + strings.ReplaceAll(x.Val.S, "'", "''") + "'"
		}
		return x.Val.String()
	case *Param:
		return "?"
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *Unary:
		if x.Op == "NOT" {
			return "NOT " + operandString(x.X)
		}
		return x.Op + operandString(x.X)
	case *Binary:
		return operandString(x.L) + " " + x.Op + " " + operandString(x.R)
	case *Between:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return operandString(x.X) + " " + not + "BETWEEN " + operandString(x.Lo) + " AND " + operandString(x.Hi)
	case *InList:
		parts := make([]string, len(x.List))
		for i, it := range x.List {
			parts[i] = exprString(it)
		}
		not := ""
		if x.Not {
			not = "NOT "
		}
		return operandString(x.X) + " " + not + "IN (" + strings.Join(parts, ", ") + ")"
	case *IsNull:
		if x.Not {
			return operandString(x.X) + " IS NOT NULL"
		}
		return operandString(x.X) + " IS NULL"
	case *Call:
		if x.Star {
			return x.Name + "(*)"
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = exprString(a)
		}
		return x.Name + "(" + strings.Join(parts, ", ") + ")"
	case *Case:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			sb.WriteString(" WHEN " + exprString(w.Cond) + " THEN " + exprString(w.Result))
		}
		if x.Else != nil {
			sb.WriteString(" ELSE " + exprString(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	case *Cast:
		return "CAST(" + exprString(x.X) + " AS " + x.To.String() + ")"
	}
	return fmt.Sprintf("<%T>", e)
}

// operandString parenthesises compound operands inside larger expressions.
func operandString(e Expr) string {
	switch e.(type) {
	case *Binary, *Between, *InList, *IsNull:
		return "(" + exprString(e) + ")"
	}
	return exprString(e)
}

// exprList renders a comma-separated expression list.
func exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = exprString(e)
	}
	return strings.Join(parts, ", ")
}
