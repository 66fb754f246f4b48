package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// The tree-walking interpreter the executor ran before expressions were
// compiled, kept verbatim as the differential oracle for the compiler
// (expr_compile_test.go): it re-dispatches on every node for every row,
// so it is slow, and obviously faithful to the dialect's semantics.

// env is the evaluation context for one row.
type env struct {
	schema schema
	row    []Value
	params []Value
	db     *DB
	aggs   []Value // populated for post-aggregation evaluation
}

// eval computes an expression against the environment.
func eval(e Expr, ev *env) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if x.Index >= len(ev.params) {
			return Value{}, fmt.Errorf("sqldb: statement needs at least %d parameters, got %d", x.Index+1, len(ev.params))
		}
		return ev.params[x.Index], nil
	case *ColumnRef:
		i, err := ev.schema.resolve(x.Table, x.Name)
		if err != nil {
			return Value{}, err
		}
		return ev.row[i], nil
	case *aggRef:
		return ev.aggs[x.Idx], nil
	case *Unary:
		return evalUnary(x, ev)
	case *Binary:
		return evalBinary(x, ev)
	case *Between:
		v, err := eval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		lo, err := eval(x.Lo, ev)
		if err != nil {
			return Value{}, err
		}
		hi, err := eval(x.Hi, ev)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		cLo, err := Compare(v, lo)
		if err != nil {
			return Value{}, err
		}
		cHi, err := Compare(v, hi)
		if err != nil {
			return Value{}, err
		}
		res := cLo >= 0 && cHi <= 0
		if x.Not {
			res = !res
		}
		return Bool(res), nil
	case *InList:
		v, err := eval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := eval(item, ev)
			if err != nil {
				return Value{}, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if Equal(v, iv) {
				return Bool(!x.Not), nil
			}
		}
		if sawNull {
			return Null(), nil
		}
		return Bool(x.Not), nil
	case *IsNull:
		v, err := eval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		if x.Not {
			return Bool(!v.IsNull()), nil
		}
		return Bool(v.IsNull()), nil
	case *Call:
		return evalCall(x, ev)
	case *Case:
		for _, w := range x.Whens {
			c, err := eval(w.Cond, ev)
			if err != nil {
				return Value{}, err
			}
			if c.AsBool() {
				return eval(w.Result, ev)
			}
		}
		if x.Else != nil {
			return eval(x.Else, ev)
		}
		return Null(), nil
	case *Cast:
		v, err := eval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		return castValue(v, x.To)
	}
	return Value{}, fmt.Errorf("sqldb: cannot evaluate %T", e)
}

func evalUnary(x *Unary, ev *env) (Value, error) {
	v, err := eval(x.X, ev)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "-":
		switch v.T {
		case TNull:
			return Null(), nil
		case TInt:
			return Int(-v.I), nil
		case TFloat:
			return Float(-v.F), nil
		}
		return Value{}, fmt.Errorf("sqldb: cannot negate %s", v.T)
	case "NOT":
		if v.IsNull() {
			return Null(), nil
		}
		if v.T != TBool {
			return Value{}, fmt.Errorf("sqldb: NOT applied to %s", v.T)
		}
		return Bool(!v.B), nil
	}
	return Value{}, fmt.Errorf("sqldb: unknown unary operator %q", x.Op)
}

func evalBinary(x *Binary, ev *env) (Value, error) {
	// AND/OR implement three-valued logic with short-circuiting.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := eval(x.L, ev)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "AND" && l.T == TBool && !l.B {
			return Bool(false), nil
		}
		if x.Op == "OR" && l.T == TBool && l.B {
			return Bool(true), nil
		}
		r, err := eval(x.R, ev)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "AND" {
			if r.T == TBool && !r.B {
				return Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return Null(), nil
			}
			return Bool(l.AsBool() && r.AsBool()), nil
		}
		if r.T == TBool && r.B {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(l.AsBool() || r.AsBool()), nil
	}

	l, err := eval(x.L, ev)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(x.R, ev)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c, err := Compare(l, r)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		case ">=":
			return Bool(c >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return String(l.String() + r.String()), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if l.T != TString || r.T != TString {
			return Value{}, fmt.Errorf("sqldb: LIKE requires strings")
		}
		return Bool(likeMatch(l.S, r.S)), nil
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %q", x.Op)
}

func evalArith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	if !isNumeric(l.T) || !isNumeric(r.T) {
		return Value{}, fmt.Errorf("sqldb: arithmetic on %s and %s", l.T, r.T)
	}
	// Integer arithmetic stays integral, except / which follows T-SQL
	// integer division only when both sides are ints.
	if l.T == TInt && r.T == TInt {
		switch op {
		case "+":
			return Int(l.I + r.I), nil
		case "-":
			return Int(l.I - r.I), nil
		case "*":
			return Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return Value{}, fmt.Errorf("sqldb: division by zero")
			}
			return Int(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return Value{}, fmt.Errorf("sqldb: modulo by zero")
			}
			return Int(l.I % r.I), nil
		}
	}
	lf, _ := l.AsFloat()
	rf, _ := r.AsFloat()
	switch op {
	case "+":
		return Float(lf + rf), nil
	case "-":
		return Float(lf - rf), nil
	case "*":
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return Value{}, fmt.Errorf("sqldb: division by zero")
		}
		return Float(lf / rf), nil
	case "%":
		if rf == 0 {
			return Value{}, fmt.Errorf("sqldb: modulo by zero")
		}
		return Float(math.Mod(lf, rf)), nil
	}
	return Value{}, fmt.Errorf("sqldb: unknown arithmetic operator %q", op)
}

// evalCall dispatches a (non-aggregate) function call: builtins first, then
// user-registered scalars.
func evalCall(x *Call, ev *env) (Value, error) {
	name := strings.ToUpper(x.Name)
	if isAggregate(name) {
		return Value{}, fmt.Errorf("sqldb: aggregate %s used outside an aggregation context", name)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := eval(a, ev)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	if fn, ok := builtins[name]; ok {
		return fn(args)
	}
	if ev.db != nil {
		if fn, ok := ev.db.scalarFunc(x.Name); ok {
			return fn(args)
		}
	}
	return Value{}, fmt.Errorf("sqldb: unknown function %s", x.Name)
}
