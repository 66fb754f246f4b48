package sqldb

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// colMeta names one column of an operator's output schema.
type colMeta struct {
	alias string // table alias (lowercased) or ""
	name  string // column name (original case)
}

// schema is an ordered list of output columns.
type schema []colMeta

// resolve finds the index of a column reference. Unqualified names must be
// unambiguous.
func (s schema) resolve(table, name string) (int, error) {
	table = strings.ToLower(table)
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if table != "" && c.alias != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqldb: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("sqldb: unknown column %s.%s", table, name)
		}
		return 0, fmt.Errorf("sqldb: unknown column %q", name)
	}
	return found, nil
}

// aggRef replaces an aggregate Call during planning; it reads aggregate
// result Idx of the group, which post-aggregation rows carry after the
// group's source columns (compiler.aggBase).
type aggRef struct{ Idx int }

func (*aggRef) expr() {}

// evalFn is a compiled expression: its value on one input row.
type evalFn func(row []Value) (Value, error)

// compiler lowers expressions to evalFns once per statement, when the
// operator that evaluates them is planned. Column references resolve to
// row slots, parameters fold to constants, and operator dispatch happens
// here rather than per row. Compilation never fails: whatever cannot
// evaluate (an unknown column, a missing parameter, an unknown function)
// compiles to a closure that reports the error when — and only if — a row
// reaches it, so a statement over an empty input still succeeds.
type compiler struct {
	sch     schema // layout of the rows the closures read
	params  []Value
	db      *DB // scalar UDF lookup; nil means builtins only
	aggBase int // row slot of aggregate result 0 (post-aggregation rows)
}

// code is one compiled node. A konst node takes the value val on every row
// (literals, parameters, and deterministic operators over them); slot >= 0
// marks a plain read of row[slot], which the typed comparison paths
// specialise on. cond, when set, is the node's own condition form, which
// fn is derived from (condCode); other nodes get one wrapped around fn
// (condOf).
type code struct {
	fn    evalFn
	cond  condFn
	konst bool
	val   Value
	slot  int
}

// tri is a value read as a condition: the three SQL truth values, plus
// triOther for a non-bool, non-NULL value — false to AND and OR, but it
// does not short-circuit them.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
	triOther
)

func triOf(v Value) tri {
	switch v.T {
	case TBool:
		if v.B {
			return triTrue
		}
		return triFalse
	case TNull:
		return triNull
	}
	return triOther
}

func triBool(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// condFn is a compiled condition: the value of a predicate on one row as
// a tri. Filters, join conditions, HAVING and the logic and typed
// comparison nodes run on it: a register-sized result instead of a
// 48-byte Value per node, which is most of a predicate's per-row cost.
type condFn func(row []Value) (tri, error)

// condCode is a node whose condition form is primary; its value form
// (always TRUE, FALSE or NULL) derives from it.
func condCode(cf condFn) code {
	return code{cond: cf, slot: -1, fn: func(row []Value) (Value, error) {
		t, err := cf(row)
		switch {
		case err != nil:
			return Value{}, err
		case t == triNull:
			return Null(), nil
		}
		return Bool(t == triTrue), nil
	}}
}

// condOf returns k's condition form.
func condOf(k code) condFn {
	if k.cond != nil {
		return k.cond
	}
	f := k.fn
	return func(row []Value) (tri, error) {
		v, err := f(row)
		return triOf(v), err
	}
}

func dynCode(fn evalFn) code { return code{fn: fn, slot: -1} }

func constCode(v Value) code {
	return code{fn: func([]Value) (Value, error) { return v, nil }, konst: true, val: v, slot: -1}
}

func errCode(err error) code {
	return dynCode(func([]Value) (Value, error) { return Value{}, err })
}

func slotCode(i int) code {
	return code{fn: func(row []Value) (Value, error) { return row[i], nil }, slot: i}
}

// fold returns fn as a constant when every operand is one and fn succeeds
// on them; fn must be deterministic. A failing fn stays a closure, so its
// error surfaces on every evaluated row and never at planning.
func fold(fn evalFn, kids ...code) code {
	for _, k := range kids {
		if !k.konst {
			return dynCode(fn)
		}
	}
	v, err := fn(nil)
	if err != nil {
		return dynCode(fn)
	}
	return constCode(v)
}

// compile lowers e; a nil expression compiles to a nil evalFn.
func (c *compiler) compile(e Expr) evalFn {
	if e == nil {
		return nil
	}
	return c.node(e).fn
}

// pred lowers a condition; a nil expression compiles to a nil condFn.
func (c *compiler) pred(e Expr) condFn {
	if e == nil {
		return nil
	}
	return condOf(c.node(e))
}

// compileAll is compile over a slice.
func (c *compiler) compileAll(es []Expr) []evalFn {
	out := make([]evalFn, len(es))
	for i, e := range es {
		out[i] = c.compile(e)
	}
	return out
}

func (c *compiler) node(e Expr) code {
	switch x := e.(type) {
	case *Literal:
		return constCode(x.Val)
	case *Param:
		if x.Index >= len(c.params) {
			return errCode(fmt.Errorf("sqldb: statement needs at least %d parameters, got %d", x.Index+1, len(c.params)))
		}
		return constCode(c.params[x.Index])
	case *ColumnRef:
		i, err := c.sch.resolve(x.Table, x.Name)
		if err != nil {
			return errCode(err)
		}
		return slotCode(i)
	case *aggRef:
		return slotCode(c.aggBase + x.Idx)
	case *Unary:
		return c.unary(x)
	case *Binary:
		if x.Op == "AND" || x.Op == "OR" {
			return c.logic(x)
		}
		return c.binary(x)
	case *Between:
		return c.between(x)
	case *InList:
		return c.inList(x)
	case *IsNull:
		arg := c.node(x.X)
		f, not := arg.fn, x.Not
		return fold(func(row []Value) (Value, error) {
			v, err := f(row)
			if err != nil {
				return Value{}, err
			}
			return Bool(v.IsNull() != not), nil
		}, arg)
	case *Call:
		return c.call(x)
	case *Case:
		return c.caseExpr(x)
	case *Cast:
		arg := c.node(x.X)
		f, to := arg.fn, x.To
		return fold(func(row []Value) (Value, error) {
			v, err := f(row)
			if err != nil {
				return Value{}, err
			}
			return castValue(v, to)
		}, arg)
	}
	return errCode(fmt.Errorf("sqldb: cannot evaluate %T", e))
}

func (c *compiler) unary(x *Unary) code {
	arg := c.node(x.X)
	f := arg.fn
	var op func(Value) (Value, error)
	switch x.Op {
	case "-":
		op = func(v Value) (Value, error) {
			switch v.T {
			case TNull:
				return Null(), nil
			case TInt:
				return Int(-v.I), nil
			case TFloat:
				return Float(-v.F), nil
			}
			return Value{}, fmt.Errorf("sqldb: cannot negate %s", v.T)
		}
	case "NOT":
		op = func(v Value) (Value, error) {
			if v.IsNull() {
				return Null(), nil
			}
			if v.T != TBool {
				return Value{}, fmt.Errorf("sqldb: NOT applied to %s", v.T)
			}
			return Bool(!v.B), nil
		}
	default:
		err := fmt.Errorf("sqldb: unknown unary operator %q", x.Op)
		op = func(Value) (Value, error) { return Value{}, err }
	}
	return fold(func(row []Value) (Value, error) {
		v, err := f(row)
		if err != nil {
			return Value{}, err
		}
		return op(v)
	}, arg)
}

// logic compiles AND/OR: three-valued logic, short-circuiting on a
// deciding left operand, over the operands' condition forms.
func (c *compiler) logic(x *Binary) code {
	l, r := c.node(x.L), c.node(x.R)
	lc, rc := condOf(l), condOf(r)
	// decide settles the result alone: FALSE for AND, TRUE for OR.
	decide := triFalse
	if x.Op == "OR" {
		decide = triTrue
	}
	k := condCode(func(row []Value) (tri, error) {
		lt, err := lc(row)
		if err != nil {
			return 0, err
		}
		if lt == decide {
			return decide, nil
		}
		rt, err := rc(row)
		if err != nil {
			return 0, err
		}
		switch {
		case rt == decide:
			return decide, nil
		case lt == triNull || rt == triNull:
			return triNull, nil
		}
		// Neither decides nor is NULL: each is the other bool or a
		// non-bool, which counts as false.
		return triBool(decide == triFalse && lt == triTrue && rt == triTrue), nil
	})
	if f := fold(k.fn, l, r); f.konst {
		return f
	}
	return k
}

// cmpMask encodes a comparison operator as the set of Compare outcomes it
// accepts: bit 0 for less, bit 1 for equal, bit 2 for greater.
type cmpMask uint8

var cmpMasks = map[string]cmpMask{"=": 2, "<>": 5, "<": 1, "<=": 3, ">": 4, ">=": 6}

func (m cmpMask) holds(c int) bool { return m>>(c+1)&1 != 0 }

// flip is the mask with its operands swapped (a < b is b > a).
func (m cmpMask) flip() cmpMask { return m&2 | m>>2&1 | m&1<<2 }

func (c *compiler) binary(x *Binary) code {
	l, r := c.node(x.L), c.node(x.R)
	var op func(lv, rv Value) (Value, error)
	if mask, ok := cmpMasks[x.Op]; ok {
		op = func(lv, rv Value) (Value, error) {
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			cmp, err := Compare(lv, rv)
			if err != nil {
				return Value{}, err
			}
			return Bool(mask.holds(cmp)), nil
		}
		generic := binaryFn(l.fn, r.fn, op)
		if typed, ok := typedCompare(l, r, mask, generic); ok {
			return typed
		}
		return fold(generic, l, r)
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		op = ariths[x.Op].apply
	case "||":
		op = func(lv, rv Value) (Value, error) {
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return String(lv.String() + rv.String()), nil
		}
	case "LIKE":
		op = func(lv, rv Value) (Value, error) {
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			if lv.T != TString || rv.T != TString {
				return Value{}, fmt.Errorf("sqldb: LIKE requires strings")
			}
			return Bool(likeMatch(lv.S, rv.S)), nil
		}
	default:
		err := fmt.Errorf("sqldb: unknown operator %q", x.Op)
		op = func(Value, Value) (Value, error) { return Value{}, err }
	}
	return fold(binaryFn(l.fn, r.fn, op), l, r)
}

// binaryFn evaluates both operands, left first, then applies op.
func binaryFn(lf, rf evalFn, op func(lv, rv Value) (Value, error)) evalFn {
	return func(row []Value) (Value, error) {
		lv, err := lf(row)
		if err != nil {
			return Value{}, err
		}
		rv, err := rf(row)
		if err != nil {
			return Value{}, err
		}
		return op(lv, rv)
	}
}

// typedCompare specialises a comparison between a row slot and a numeric
// constant (either side) into an inline compare. A value the typed path
// does not cover — a string or bool in the slot — goes to the generic
// closure, which raises the same error the interpreter always has.
func typedCompare(l, r code, mask cmpMask, generic evalFn) (code, bool) {
	if l.slot < 0 {
		l, r, mask = r, l, mask.flip()
	}
	if l.slot < 0 || !r.konst || !isNumeric(r.val.T) {
		return code{}, false
	}
	i, k := l.slot, r.val
	return condCode(func(row []Value) (tri, error) {
		v := &row[i]
		switch v.T {
		case TInt, TFloat:
			return triBool(mask.holds(numCompare(*v, k))), nil
		case TNull:
			return triNull, nil
		}
		g, err := generic(row)
		return triOf(g), err
	}), true
}

func (c *compiler) between(x *Between) code {
	arg, lo, hi := c.node(x.X), c.node(x.Lo), c.node(x.Hi)
	f, lf, hf, not := arg.fn, lo.fn, hi.fn, x.Not
	generic := func(row []Value) (Value, error) {
		v, err := f(row)
		if err != nil {
			return Value{}, err
		}
		lv, err := lf(row)
		if err != nil {
			return Value{}, err
		}
		hv, err := hf(row)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lv.IsNull() || hv.IsNull() {
			return Null(), nil
		}
		cLo, err := Compare(v, lv)
		if err != nil {
			return Value{}, err
		}
		cHi, err := Compare(v, hv)
		if err != nil {
			return Value{}, err
		}
		return Bool((cLo >= 0 && cHi <= 0) != not), nil
	}
	if arg.slot >= 0 && lo.konst && hi.konst && isNumeric(lo.val.T) && isNumeric(hi.val.T) {
		i, lv, hv := arg.slot, lo.val, hi.val
		return condCode(func(row []Value) (tri, error) {
			v := &row[i]
			switch v.T {
			case TInt, TFloat:
				return triBool((numCompare(*v, lv) >= 0 && numCompare(*v, hv) <= 0) != not), nil
			case TNull:
				return triNull, nil
			}
			g, err := generic(row)
			return triOf(g), err
		})
	}
	return fold(generic, arg, lo, hi)
}

func (c *compiler) inList(x *InList) code {
	arg := c.node(x.X)
	kids := []code{arg}
	items := make([]evalFn, len(x.List))
	for i, it := range x.List {
		k := c.node(it)
		kids = append(kids, k)
		items[i] = k.fn
	}
	f, not := arg.fn, x.Not
	return fold(func(row []Value) (Value, error) {
		v, err := f(row)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		sawNull := false
		for _, item := range items {
			iv, err := item(row)
			if err != nil {
				return Value{}, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if Equal(v, iv) {
				return Bool(!not), nil
			}
		}
		if sawNull {
			return Null(), nil
		}
		return Bool(not), nil
	}, kids...)
}

// call compiles a (non-aggregate) function call: builtins first, then the
// database's registered scalars. Builtins are deterministic and fold over
// constant arguments; a registered scalar runs on every evaluation.
func (c *compiler) call(x *Call) code {
	name := strings.ToUpper(x.Name)
	if isAggregate(name) {
		return errCode(fmt.Errorf("sqldb: aggregate %s used outside an aggregation context", name))
	}
	kids := make([]code, len(x.Args))
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		kids[i] = c.node(a)
		args[i] = kids[i].fn
	}
	fn, builtin := builtins[name]
	if !builtin && c.db != nil {
		fn, _ = c.db.scalarFunc(x.Name)
	}
	if fn == nil {
		err := fmt.Errorf("sqldb: unknown function %s", x.Name)
		fn = func([]Value) (Value, error) { return Value{}, err }
	}
	run := func(row []Value) (Value, error) {
		vals, err := evalArgs(args, row)
		if err != nil {
			return Value{}, err
		}
		return fn(vals)
	}
	if builtin {
		return fold(run, kids...)
	}
	return dynCode(run)
}

func (c *compiler) caseExpr(x *Case) code {
	type when struct{ cond, result evalFn }
	var kids []code
	whens := make([]when, len(x.Whens))
	for i, w := range x.Whens {
		cond, result := c.node(w.Cond), c.node(w.Result)
		kids = append(kids, cond, result)
		whens[i] = when{cond.fn, result.fn}
	}
	var els evalFn
	if x.Else != nil {
		k := c.node(x.Else)
		kids = append(kids, k)
		els = k.fn
	}
	return fold(func(row []Value) (Value, error) {
		for _, w := range whens {
			cv, err := w.cond(row)
			if err != nil {
				return Value{}, err
			}
			if cv.AsBool() {
				return w.result(row)
			}
		}
		if els != nil {
			return els(row)
		}
		return Null(), nil
	}, kids...)
}

// arith is one arithmetic operator. Integer operands stay integral — /
// included, the T-SQL integer division — and any float operand makes the
// operation float. zero, when set, is the error a zero right operand
// raises.
type arith struct {
	i    func(a, b int64) int64
	f    func(a, b float64) float64
	zero string
}

var ariths = map[string]arith{
	"+": {func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }, ""},
	"-": {func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }, ""},
	"*": {func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }, ""},
	"/": {func(a, b int64) int64 { return a / b }, func(a, b float64) float64 { return a / b }, "sqldb: division by zero"},
	"%": {func(a, b int64) int64 { return a % b }, math.Mod, "sqldb: modulo by zero"},
}

func (a arith) apply(l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	if !isNumeric(l.T) || !isNumeric(r.T) {
		return Value{}, fmt.Errorf("sqldb: arithmetic on %s and %s", l.T, r.T)
	}
	if l.T == TInt && r.T == TInt {
		if a.zero != "" && r.I == 0 {
			return Value{}, errors.New(a.zero)
		}
		return Int(a.i(l.I, r.I)), nil
	}
	lf, rf := l.num(), r.num()
	if a.zero != "" && rf == 0 {
		return Value{}, errors.New(a.zero)
	}
	return Float(a.f(lf, rf)), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char).
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match over bytes.
	n, m := len(s), len(pattern)
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		pc := pattern[j-1]
		cur[0] = prev[0] && pc == '%'
		for i := 1; i <= n; i++ {
			switch pc {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pc
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

func castValue(v Value, to Type) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	switch to {
	case TInt:
		switch v.T {
		case TInt:
			return v, nil
		case TFloat:
			return Int(int64(v.F)), nil
		case TString:
			var i int64
			if _, err := fmt.Sscanf(strings.TrimSpace(v.S), "%d", &i); err != nil {
				return Value{}, fmt.Errorf("sqldb: cannot cast %q to integer", v.S)
			}
			return Int(i), nil
		case TBool:
			if v.B {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case TFloat:
		switch v.T {
		case TInt:
			return Float(float64(v.I)), nil
		case TFloat:
			return v, nil
		case TString:
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v.S), "%g", &f); err != nil {
				return Value{}, fmt.Errorf("sqldb: cannot cast %q to float", v.S)
			}
			return Float(f), nil
		}
	case TString:
		return String(v.String()), nil
	case TBool:
		switch v.T {
		case TBool:
			return v, nil
		case TInt:
			return Bool(v.I != 0), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: cannot cast %s to %s", v.T, to)
}

// walkExpr visits e and its children (pre-order).
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		walkExpr(x.X, fn)
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *Between:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *InList:
		walkExpr(x.X, fn)
		for _, i := range x.List {
			walkExpr(i, fn)
		}
	case *IsNull:
		walkExpr(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *Case:
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Result, fn)
		}
		walkExpr(x.Else, fn)
	case *Cast:
		walkExpr(x.X, fn)
	}
}

// rewriteAggs replaces aggregate calls in e with aggRef nodes, appending
// each distinct call to *calls. Returns the rewritten expression.
func rewriteAggs(e Expr, calls *[]*Call) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Call:
		if isAggregate(x.Name) {
			for i, c := range *calls {
				if c == x {
					return &aggRef{Idx: i}
				}
			}
			*calls = append(*calls, x)
			return &aggRef{Idx: len(*calls) - 1}
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewriteAggs(a, calls)
		}
		return &Call{Name: x.Name, Args: args, Star: x.Star}
	case *Unary:
		return &Unary{Op: x.Op, X: rewriteAggs(x.X, calls)}
	case *Binary:
		return &Binary{Op: x.Op, L: rewriteAggs(x.L, calls), R: rewriteAggs(x.R, calls)}
	case *Between:
		return &Between{X: rewriteAggs(x.X, calls), Lo: rewriteAggs(x.Lo, calls), Hi: rewriteAggs(x.Hi, calls), Not: x.Not}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			list[i] = rewriteAggs(it, calls)
		}
		return &InList{X: rewriteAggs(x.X, calls), List: list, Not: x.Not}
	case *IsNull:
		return &IsNull{X: rewriteAggs(x.X, calls), Not: x.Not}
	case *Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: rewriteAggs(w.Cond, calls), Result: rewriteAggs(w.Result, calls)}
		}
		return &Case{Whens: whens, Else: rewriteAggs(x.Else, calls)}
	case *Cast:
		return &Cast{X: rewriteAggs(x.X, calls), To: x.To}
	}
	return e
}

// hasAggregate reports whether e contains an aggregate function call.
func hasAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if c, ok := x.(*Call); ok && isAggregate(c.Name) {
			found = true
		}
	})
	return found
}

func isAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}
