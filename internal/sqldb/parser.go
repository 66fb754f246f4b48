package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqldb: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, nparams: 0}
	var stmts []Statement
	for {
		for p.acceptSym(";") {
		}
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptSym(";") && p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
	return stmts, nil
}

type parser struct {
	toks    []token
	i       int
	nparams int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) backup()     { p.i-- }
func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	where := t.text
	if t.kind == tokEOF {
		where = "end of input"
	}
	return fmt.Errorf("sqldb: parse error near %q (offset %d): %s", where, t.pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

// acceptIdentKw consumes the next token when it is the given contextual
// keyword. Such words lex as plain identifiers (see the lexer's keyword
// note), so they stay usable as table and column names everywhere the
// grammar does not specifically expect them.
func (p *parser) acceptIdentKw(word string) bool {
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptSym(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	// Allow non-reserved keywords used as identifiers (e.g. a column
	// named "key" or the COUNT pseudo-keyword as a function name).
	if t.kind == tokKeyword && (t.text == "KEY" || t.text == "COUNT" || t.text == "INDEX") {
		p.i++
		return t.text, nil
	}
	return "", p.errf("expected identifier")
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, "EXPLAIN") {
		return p.explainStmt()
	}
	if t.kind != tokKeyword {
		return nil, p.errf("expected a statement keyword")
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "CREATE":
		return p.createStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "DROP":
		return p.dropStmt()
	case "TRUNCATE":
		return p.truncateStmt()
	}
	return nil, p.errf("unsupported statement %s", t.text)
}

func (p *parser) explainStmt() (Statement, error) {
	p.next() // EXPLAIN
	stmt := &ExplainStmt{}
	if p.acceptIdentKw("ANALYZE") {
		stmt.Analyze = true
	}
	q, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	stmt.Query = q
	return stmt, nil
}

func (p *parser) createStmt() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.acceptKw("TABLE"):
		return p.createTable()
	case p.acceptKw("CLUSTERED"):
		columnstore := p.acceptIdentKw("COLUMNSTORE")
		if err := p.expectKw("INDEX"); err != nil {
			return nil, err
		}
		return p.createIndex(&CreateIndexStmt{Clustered: true, Columnstore: columnstore})
	case p.acceptKw("INDEX"):
		return p.createIndex(&CreateIndexStmt{})
	}
	return nil, p.errf("expected TABLE or [CLUSTERED [COLUMNSTORE]] INDEX after CREATE")
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	for {
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.ident()
	if err != nil {
		return col, err
	}
	col.Name = name
	typ, err := p.typeName()
	if err != nil {
		return col, err
	}
	col.Type = typ
	for {
		switch {
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return col, err
			}
			col.PK = true
		case p.acceptKw("IDENTITY"):
			col.Identity = true
			if p.acceptSym("(") { // IDENTITY(1,1)
				for !p.acceptSym(")") {
					if p.peek().kind == tokEOF {
						return col, p.errf("unterminated IDENTITY clause")
					}
					p.next()
				}
			}
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return col, err
			}
			// NOT NULL accepted and ignored (no null-constraint
			// enforcement beyond PKs).
		case p.acceptKw("NULL"):
		default:
			return col, nil
		}
	}
}

func (p *parser) typeName() (Type, error) {
	name, err := p.ident()
	if err != nil {
		return TNull, err
	}
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return TInt, nil
	case "REAL", "FLOAT", "DOUBLE":
		return TFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "NVARCHAR":
		if p.acceptSym("(") { // VARCHAR(n)
			if p.peek().kind != tokNumber {
				return TNull, p.errf("expected length in type")
			}
			p.next()
			if err := p.expectSym(")"); err != nil {
				return TNull, err
			}
		}
		return TString, nil
	case "BIT", "BOOL", "BOOLEAN":
		return TBool, nil
	}
	return TNull, p.errf("unknown type %q", name)
}

func (p *parser) createIndex(stmt *CreateIndexStmt) (Statement, error) {
	var err error
	if stmt.Name, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	if stmt.Table, err = p.qualifiedName(); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		// Optional ASC/DESC (DESC unsupported in index keys).
		p.acceptKw("ASC")
		stmt.Cols = append(stmt.Cols, c)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.next() // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}

func (p *parser) truncateStmt() (Statement, error) {
	p.next() // TRUNCATE
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	return &TruncateStmt{Table: name}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	p.acceptKw("INTO")
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	if p.acceptSym("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, c)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("VALUES") {
		for {
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptSym(",") {
					continue
				}
				break
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			stmt.Rows = append(stmt.Rows, row)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		return stmt, nil
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		stmt.Query = q
		return stmt, nil
	}
	return nil, p.errf("expected VALUES or SELECT in INSERT")
}

func (p *parser) updateStmt() (Statement, error) {
	p.next() // UPDATE
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		val, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col, Val: val})
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.acceptKw("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.acceptKw("DISTINCT") {
		stmt.Distinct = true
	}
	if p.acceptKw("TOP") {
		if p.peek().kind != tokNumber {
			return nil, p.errf("expected number after TOP")
		}
		n, err := strconv.ParseInt(p.next().text, 10, 64)
		if err != nil {
			return nil, p.errf("bad TOP count: %v", err)
		}
		stmt.Limit = n
	}
	// Select list.
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		for first := true; ; first = false {
			item, err := p.fromItem(first)
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, item)
			// Another join?
			t := p.peek()
			if t.kind == tokKeyword && (t.text == "JOIN" || t.text == "INNER" ||
				t.text == "CROSS" || t.text == "LEFT") {
				continue
			}
			if p.acceptSym(",") { // comma join = cross join
				it, err := p.fromTableRef()
				if err != nil {
					return nil, err
				}
				it.Join = joinCross
				stmt.From = append(stmt.From, it)
				// loop: further joins may follow
				p.backupJoinCheck(stmt)
				continue
			}
			break
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		if p.peek().kind != tokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		n, err := strconv.ParseInt(p.next().text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT count: %v", err)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

// backupJoinCheck is a no-op retained for clarity of the comma-join loop.
func (p *parser) backupJoinCheck(*SelectStmt) {}

func (p *parser) selectItem() (SelectItem, error) {
	if p.acceptSym("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if t := p.peek(); t.kind == tokIdent {
		save := p.i
		name := p.next().text
		if p.acceptSym(".") && p.acceptSym("*") {
			return SelectItem{Star: true, StarTable: name}, nil
		}
		p.i = save
	}
	e, err := p.expression()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if t := p.peek(); t.kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) fromItem(first bool) (FromItem, error) {
	join := joinNone
	var onRequired bool
	if !first {
		switch {
		case p.acceptKw("CROSS"):
			if err := p.expectKw("JOIN"); err != nil {
				return FromItem{}, err
			}
			join = joinCross
		case p.acceptKw("INNER"):
			if err := p.expectKw("JOIN"); err != nil {
				return FromItem{}, err
			}
			join, onRequired = joinInner, true
		case p.acceptKw("LEFT"):
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return FromItem{}, err
			}
			join, onRequired = joinLeft, true
		case p.acceptKw("JOIN"):
			join, onRequired = joinInner, true
		default:
			return FromItem{}, p.errf("expected JOIN")
		}
	}
	item, err := p.fromTableRef()
	if err != nil {
		return FromItem{}, err
	}
	item.Join = join
	if onRequired {
		if err := p.expectKw("ON"); err != nil {
			return FromItem{}, err
		}
		on, err := p.expression()
		if err != nil {
			return FromItem{}, err
		}
		item.On = on
	}
	return item, nil
}

// fromTableRef parses table [alias] or tvf(args) [alias].
func (p *parser) fromTableRef() (FromItem, error) {
	name, err := p.qualifiedName()
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Table: name}
	if p.acceptSym("(") {
		item.IsTVF = true
		if !p.acceptSym(")") {
			for {
				e, err := p.expression()
				if err != nil {
					return item, err
				}
				item.Args = append(item.Args, e)
				if p.acceptSym(",") {
					continue
				}
				break
			}
			if err := p.expectSym(")"); err != nil {
				return item, err
			}
		}
	}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if t := p.peek(); t.kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

// qualifiedName parses name or schema.name or db.schema.name and returns
// the final component (the engine has a single flat namespace, like MyDB).
func (p *parser) qualifiedName() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	for p.acceptSym(".") {
		name, err = p.ident()
		if err != nil {
			return "", err
		}
	}
	return name, nil
}

// Expression grammar, loosest to tightest:
//
//	expression  := orExpr
//	orExpr      := andExpr (OR andExpr)*
//	andExpr     := notExpr (AND notExpr)*
//	notExpr     := NOT notExpr | predicate
//	predicate   := addExpr (cmp addExpr | BETWEEN .. AND .. | IN (..) | IS [NOT] NULL | LIKE ..)?
//	addExpr     := mulExpr (("+"|"-"|"||") mulExpr)*
//	mulExpr     := unary (("*"|"/"|"%") unary)*
//	unary       := ("-"|"+") unary | primary
//	primary     := literal | param | call | CASE | CAST | columnRef | "(" expression ")"
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.predicate()
}

func (p *parser) predicate() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	if t := p.peek(); t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	not := false
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		// lookahead for NOT BETWEEN / NOT IN / NOT LIKE
		save := p.i
		p.next()
		if tt := p.peek(); tt.kind == tokKeyword && (tt.text == "BETWEEN" || tt.text == "IN" || tt.text == "LIKE") {
			not = true
		} else {
			p.i = save
			return l, nil
		}
	}
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKw("IN"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &InList{X: l, List: list, Not: not}, nil
	case p.acceptKw("LIKE"):
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		e := Expr(&Binary{Op: "LIKE", L: l, R: r})
		if not {
			e = &Unary{Op: "NOT", X: e}
		}
		return e, nil
	case p.acceptKw("IS"):
		isNot := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Not: isNot}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.next()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.next()
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.peek()
	if t.kind == tokSymbol && (t.text == "-" || t.text == "+") {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			return x, nil
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number: %v", err)
			}
			return &Literal{Val: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errf("bad number: %v", err)
			}
			return &Literal{Val: Float(f)}, nil
		}
		return &Literal{Val: Int(n)}, nil
	case tokString:
		p.next()
		return &Literal{Val: String(t.text)}, nil
	case tokParam:
		p.next()
		e := &Param{Index: p.nparams}
		p.nparams++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: Bool(false)}, nil
		case "CASE":
			return p.caseExpr()
		case "CAST":
			return p.castExpr()
		case "COUNT":
			p.next()
			return p.callArgs("COUNT")
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)
	case tokIdent:
		p.next()
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			return p.callArgs(t.text)
		}
		// Qualified column: a.b (and db.schema.col collapses to the
		// last two parts).
		if p.acceptSym(".") {
			parts := []string{t.text}
			for {
				id, err := p.ident()
				if err != nil {
					return nil, err
				}
				parts = append(parts, id)
				if !p.acceptSym(".") {
					break
				}
			}
			// Qualified function call, e.g. dbo.fBCGr200(...).
			if p.peek().kind == tokSymbol && p.peek().text == "(" {
				return p.callArgs(parts[len(parts)-1])
			}
			return &ColumnRef{Table: parts[len(parts)-2], Name: parts[len(parts)-1]}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token in expression")
}

func (p *parser) callArgs(name string) (Expr, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	call := &Call{Name: strings.ToUpper(name)}
	if p.acceptSym("*") {
		call.Star = true
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	p.acceptKw("DISTINCT") // COUNT(DISTINCT x) treated as COUNT(x)
	if !p.acceptSym(")") {
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	return call, nil
}

func (p *parser) caseExpr() (Expr, error) {
	p.next() // CASE
	c := &Case{}
	for p.acceptKw("WHEN") {
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.expression()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) castExpr() (Expr, error) {
	p.next() // CAST
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	typ, err := p.typeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &Cast{X: x, To: typ}, nil
}
