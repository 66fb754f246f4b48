package sqldb

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The compiler against the interpreter it replaced (expr_oracle_test.go):
// the same tree over the same row and parameters must give the same value
// bits and the same error, or both no error.

// oraclePool mixes every value type, the exact-int boundary at 2^53, a
// NaN and an integral float, so typed paths meet values they do not cover.
var oraclePool = []Value{
	Null(), Int(0), Int(1), Int(-3), Int(1 << 53), Int(1<<53 + 1), Int(math.MinInt64),
	Float(0.5), Float(-2), Float(1 << 53), Float(math.NaN()), Float(math.Inf(1)),
	String(""), String("a"), String("abc"), String("a%"), Bool(true), Bool(false),
}

func sameValue(a, b Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case TInt:
		return a.I == b.I
	case TFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case TString:
		return a.S == b.S
	case TBool:
		return a.B == b.B
	}
	return true
}

// diffCase is one expression evaluated both ways over a row; aggs are the
// post-aggregation values aggRef nodes read.
type diffCase struct {
	e      Expr
	sch    schema
	row    []Value
	aggs   []Value
	params []Value
	db     *DB
}

// check returns a description of the first disagreement, or "". Both
// compiled forms are checked: the value and the condition a filter reads.
func (c diffCase) check() string {
	want, werr := eval(c.e, &env{schema: c.sch, row: c.row, params: c.params, db: c.db, aggs: c.aggs})
	comp := &compiler{sch: c.sch, params: c.params, db: c.db, aggBase: len(c.sch)}
	row := append(append([]Value(nil), c.row...), c.aggs...)
	got, gerr := comp.compile(c.e)(row)
	cond, cerr := comp.pred(c.e)(row)
	switch {
	case !sameErr(gerr, werr):
		return "error " + errText(gerr) + ", oracle " + errText(werr)
	case !sameErr(cerr, werr):
		return "condition error " + errText(cerr) + ", oracle " + errText(werr)
	case werr == nil && !sameValue(got, want):
		return "value " + got.T.String() + " " + got.String() + ", oracle " + want.T.String() + " " + want.String()
	case werr == nil && cond != triOf(want):
		return fmt.Sprintf("condition %d, oracle %s %s", cond, want.T, want)
	}
	return ""
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return strconv.Quote(err.Error())
}

// twice is a registered scalar, so calls compile both the builtin and
// the database lookup.
func twice(args []Value) (Value, error) {
	if len(args) != 1 || !isNumeric(args[0].T) {
		return Null(), nil
	}
	return Float(2 * args[0].num()), nil
}

func oracleDB() *DB {
	db := Open(16)
	db.RegisterScalar("TWICE", twice)
	return db
}

// exprGen builds an expression tree from fuzz bytes; past the end of the
// input every choice reads zero, which ends the tree in leaves.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b)
}

func (g *exprGen) pick(n int) int { return g.next() % n }

// genRefs covers resolved, qualified, ambiguous and unknown references
// against genSchema.
var genRefs = []ColumnRef{
	{Table: "t", Name: "a"}, {Name: "b"}, {Name: "c"}, {Table: "u", Name: "d"},
	{Name: "a"}, {Name: "zz"},
}

var genSchema = schema{{"t", "a"}, {"t", "b"}, {"u", "c"}, {"u", "d"}, {"u", "a"}}

var genCalls = []string{"ABS", "COALESCE", "ROUND", "UPPER", "LEN", "NULLIF", "SQRT", "TWICE", "NOSUCH", "COUNT"}

func (g *exprGen) expr(depth int) Expr {
	kind := g.next()
	if depth <= 0 {
		kind %= 4
	}
	sub := func() Expr { return g.expr(depth - 1) }
	switch kind % 16 {
	case 0:
		return &Literal{Val: oraclePool[g.pick(len(oraclePool))]}
	case 1:
		r := genRefs[g.pick(len(genRefs))]
		return &r
	case 2:
		return &Param{Index: g.pick(4)} // 3 params: index 3 is missing
	case 3:
		return &aggRef{Idx: g.pick(2)}
	case 4:
		return &Binary{Op: []string{"AND", "OR"}[g.pick(2)], L: sub(), R: sub()}
	case 5:
		return &Unary{Op: "NOT", X: sub()}
	case 6:
		return &Binary{Op: []string{"=", "<>", "<", "<=", ">", ">="}[g.pick(6)], L: sub(), R: sub()}
	case 7:
		return &Between{X: sub(), Lo: sub(), Hi: sub(), Not: g.pick(2) == 1}
	case 8:
		list := make([]Expr, g.pick(4))
		for i := range list {
			list[i] = sub()
		}
		return &InList{X: sub(), List: list, Not: g.pick(2) == 1}
	case 9:
		return &IsNull{X: sub(), Not: g.pick(2) == 1}
	case 10:
		c := &Case{Whens: make([]When, 1+g.pick(2))}
		for i := range c.Whens {
			c.Whens[i] = When{Cond: sub(), Result: sub()}
		}
		if g.pick(2) == 1 {
			c.Else = sub()
		}
		return c
	case 11:
		return &Binary{Op: []string{"+", "-", "*", "/", "%"}[g.pick(5)], L: sub(), R: sub()}
	case 12:
		return &Binary{Op: []string{"LIKE", "||", "^"}[g.pick(3)], L: sub(), R: sub()}
	case 13:
		args := make([]Expr, g.pick(3))
		for i := range args {
			args[i] = sub()
		}
		return &Call{Name: genCalls[g.pick(len(genCalls))], Args: args}
	case 14:
		return &Unary{Op: []string{"-", "NOT", "~"}[g.pick(3)], X: sub()}
	}
	return &Cast{X: sub(), To: []Type{TInt, TFloat, TString, TBool}[g.pick(4)]}
}

// genValue draws a pool value, offset so exhausted input still varies.
func (g *exprGen) genValue(salt int) Value {
	return oraclePool[(g.next()+salt)%len(oraclePool)]
}

func FuzzCompiledExpr(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 1, 0, 5, 0, 9})          // col BETWEEN const AND const
	f.Add([]byte{6, 0, 1, 0, 2, 1})             // col < param
	f.Add([]byte{4, 6, 1, 2, 0, 3, 7, 1, 4})    // AND of comparisons
	f.Add([]byte{13, 2, 1, 5, 11, 0, 0, 6, 10}) // arithmetic inside a call
	f.Add([]byte{10, 1, 6, 1, 1, 0, 3, 1, 12, 0, 15, 0, 14})
	db := oracleDB()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		e := g.expr(4)
		params := []Value{g.genValue(1), g.genValue(5), g.genValue(9)}
		aggs := []Value{g.genValue(2), g.genValue(7)}
		for r := 0; r < 4; r++ {
			row := make([]Value, len(genSchema))
			for i := range row {
				row[i] = g.genValue(r*len(genSchema) + i)
			}
			c := diffCase{e: e, sch: genSchema, row: row, aggs: aggs, params: params, db: db}
			if msg := c.check(); msg != "" {
				t.Fatalf("%s over row %v params %v aggs %v: %s", exprString(e), row, params, aggs, msg)
			}
		}
	})
}

// suiteExprs collects every expression of every SQL statement spelled as
// a string literal in this package's tests: select lists, WHERE, ON,
// GROUP BY, HAVING, ORDER BY, TVF arguments, VALUES rows and UPDATE/DELETE
// clauses. The corpus grows with the suites.
func suiteExprs(t *testing.T) []Expr {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := gotoken.NewFileSet()
	var out []Expr
	addSelect := func(s *SelectStmt) {
		for _, it := range s.Items {
			if !it.Star {
				out = append(out, it.Expr)
			}
		}
		for _, fi := range s.From {
			out = append(out, fi.Args...)
			if fi.On != nil {
				out = append(out, fi.On)
			}
		}
		out = append(out, s.GroupBy...)
		for _, e := range []Expr{s.Where, s.Having} {
			if e != nil {
				out = append(out, e)
			}
		}
		for _, o := range s.OrderBy {
			out = append(out, o.Expr)
		}
	}
	for _, name := range files {
		file, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING {
				return true
			}
			sql, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			stmt, err := Parse(sql)
			if err != nil {
				return true
			}
			switch s := stmt.(type) {
			case *SelectStmt:
				addSelect(s)
			case *ExplainStmt:
				addSelect(s.Query)
			case *InsertStmt:
				for _, r := range s.Rows {
					out = append(out, r...)
				}
				if s.Query != nil {
					addSelect(s.Query)
				}
			case *UpdateStmt:
				for _, set := range s.Sets {
					out = append(out, set.Val)
				}
				if s.Where != nil {
					out = append(out, s.Where)
				}
			case *DeleteStmt:
				if s.Where != nil {
					out = append(out, s.Where)
				}
			}
			return true
		})
	}
	return out
}

// exprSchema lays out one slot per column the expression names; an
// unqualified name shares the slot of a qualified one, so references
// resolve unless the SQL itself is ambiguous or wrong.
func exprSchema(e Expr) schema {
	var sch schema
	seen := map[string]bool{}
	qualified := map[string]bool{}
	walkExpr(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok && c.Table != "" {
			qualified[strings.ToLower(c.Name)] = true
		}
	})
	walkExpr(e, func(x Expr) {
		c, ok := x.(*ColumnRef)
		if !ok || (c.Table == "" && qualified[strings.ToLower(c.Name)]) {
			return
		}
		k := strings.ToLower(c.Table + "." + c.Name)
		if !seen[k] {
			seen[k] = true
			sch = append(sch, colMeta{alias: strings.ToLower(c.Table), name: c.Name})
		}
	})
	return sch
}

func TestCompiledMatchesOracleOnSuiteExpressions(t *testing.T) {
	exprs := suiteExprs(t)
	if len(exprs) < 200 {
		t.Fatalf("found only %d suite expressions; the corpus scan is broken", len(exprs))
	}
	db := oracleDB()
	rng := rand.New(rand.NewSource(20040801))
	draw := func() Value { return oraclePool[rng.Intn(len(oraclePool))] }
	for _, raw := range exprs {
		var calls []*Call
		e := rewriteAggs(raw, &calls)
		sch := exprSchema(e)
		for trial := 0; trial < 40; trial++ {
			c := diffCase{e: e, sch: sch, db: db,
				row: make([]Value, len(sch)), aggs: make([]Value, len(calls)), params: make([]Value, 6)}
			for _, vs := range [][]Value{c.row, c.aggs, c.params} {
				for i := range vs {
					vs[i] = draw()
				}
			}
			if msg := c.check(); msg != "" {
				t.Fatalf("%s over row %v params %v: %s", exprString(raw), c.row, c.params, msg)
			}
		}
	}
	t.Logf("%d suite expressions agree with the oracle", len(exprs))
}

// Typed rows: the compiled typed paths must meet the values they were
// built for, not only the mixed pool above.
func TestCompiledMatchesOracleOnNumericRows(t *testing.T) {
	sch := schema{{"t", "x"}}
	consts := []Value{Int(3), Int(1 << 53), Float(2.5), Float(math.NaN()), Int(-1)}
	vals := append([]Value{Null(), String("s"), Bool(true)}, consts...)
	vals = append(vals, Int(1<<53+1), Float(3), Float(-0.0))
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, k := range consts {
			for _, flip := range []bool{false, true} {
				var e Expr = &Binary{Op: op, L: &ColumnRef{Name: "x"}, R: &Literal{Val: k}}
				if flip {
					e = &Binary{Op: op, L: &Literal{Val: k}, R: &ColumnRef{Name: "x"}}
				}
				for _, v := range vals {
					c := diffCase{e: e, sch: sch, row: []Value{v}}
					if msg := c.check(); msg != "" {
						t.Fatalf("%s with x=%v: %s", exprString(e), v, msg)
					}
				}
			}
		}
	}
	for _, lo := range consts {
		for _, hi := range consts {
			for _, not := range []bool{false, true} {
				e := &Between{X: &ColumnRef{Name: "x"}, Lo: &Param{Index: 0}, Hi: &Literal{Val: hi}, Not: not}
				for _, v := range vals {
					c := diffCase{e: e, sch: sch, row: []Value{v}, params: []Value{lo}}
					if msg := c.check(); msg != "" {
						t.Fatalf("%s with x=%v lo=%v: %s", exprString(e), v, lo, msg)
					}
				}
			}
		}
	}
}
