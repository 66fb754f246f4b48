package sqldb

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name     string
	Type     Type
	PK       bool
	Identity bool // IDENTITY(1,1): auto-assigned ascending integer
}

// CreateTableStmt is CREATE TABLE name (cols...).
type CreateTableStmt struct {
	Name string
	Cols []ColumnDef
}

// CreateIndexStmt is CREATE [CLUSTERED [COLUMNSTORE]] INDEX name ON
// table(cols...). Only clustered indexes are supported: the statement
// re-sorts the table's storage by the given key, which is what the
// paper's spZone does. COLUMNSTORE makes the re-sorted rows column-primary
// (internal/colstore segments, the pages ColumnarScan and the zone sweeps
// read): the key must be (integer group, float sort) and the table hold
// only non-null numeric data.
type CreateIndexStmt struct {
	Name        string
	Table       string
	Cols        []string
	Clustered   bool
	Columnstore bool
}

// ExplainStmt is EXPLAIN [ANALYZE] select: it plans the query and returns
// the physical operator tree, one line per row. ANALYZE also executes the
// plan so each operator reports its actual row count.
type ExplainStmt struct {
	Analyze bool
	Query   *SelectStmt
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// TruncateStmt is TRUNCATE TABLE name.
type TruncateStmt struct{ Table string }

// InsertStmt is INSERT INTO table [(cols)] VALUES (...),(...) or
// INSERT INTO table [(cols)] SELECT ...
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
	Query *SelectStmt
}

// SetClause is one col = expr assignment in UPDATE.
type SetClause struct {
	Col string
	Val Expr
}

// UpdateStmt is UPDATE table SET ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

type joinKind int

const (
	joinNone joinKind = iota // first FROM item
	joinInner
	joinCross
	joinLeft
)

// FromItem is one entry of the FROM clause: a base table or a table-valued
// function call, with an optional join to the items before it.
type FromItem struct {
	Table string
	Args  []Expr // non-nil: table-valued function call
	IsTVF bool
	Alias string
	Join  joinKind
	On    Expr // nil for CROSS JOIN and the first item
}

// SelectItem is one projection of the SELECT list.
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool   // SELECT * or t.*
	StarTable string // qualifier of t.*
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1: none (also set by TOP n)
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*ExplainStmt) stmt()     {}
func (*DropTableStmt) stmt()   {}
func (*TruncateStmt) stmt()    {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Expr is any SQL expression node.
type Expr interface{ expr() }

// Literal is a constant.
type Literal struct{ Val Value }

// Param is a ? placeholder, bound positionally at execution.
type Param struct{ Index int }

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct{ Table, Name string }

// Unary is -x, +x or NOT x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator: + - * / % = <> < <= > >= AND OR ||.
type Binary struct {
	Op   string
	L, R Expr
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Call is a function call; aggregates are recognised by name during
// planning. Star marks COUNT(*).
type Call struct {
	Name string
	Args []Expr
	Star bool
}

// When is one WHEN cond THEN result arm.
type When struct{ Cond, Result Expr }

// Case is CASE WHEN ... THEN ... [ELSE ...] END (searched form).
type Case struct {
	Whens []When
	Else  Expr
}

// Cast is CAST(x AS type).
type Cast struct {
	X  Expr
	To Type
}

func (*Literal) expr()   {}
func (*Param) expr()     {}
func (*ColumnRef) expr() {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*Between) expr()   {}
func (*InList) expr()    {}
func (*IsNull) expr()    {}
func (*Call) expr()      {}
func (*Case) expr()      {}
func (*Cast) expr()      {}
