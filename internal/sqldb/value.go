// Package sqldb is a from-scratch SQL database engine over the storage
// layer: a lexer, recursive-descent parser, a two-phase query compiler —
// logical binding (plan.go) then a rule-based physical planner with
// Volcano-style operators (physical.go) — and registries for scalar and
// table-valued functions so the paper's UDFs (fGetNearbyObjEqZd,
// fBCGr200, ...) can be installed from Go.
//
// The planner is where the engine's fast paths become reachable from
// plain SQL: scans over tables with a columnar projection lower to
// ColumnarScan (segment pages, directory pruning, only referenced
// columns decoded), lateral joins against batch-capable TVFs lower to
// ZoneSweepJoin (the batched zone sweep answering every outer row in one
// pass), and EXPLAIN [ANALYZE] prints the physical tree with
// estimated/actual row counts. Expressions compile to closures over row
// slots once per statement (expr.go), and row scans decode only the
// columns their statement reads; operators exchange borrowed rows and the
// row-shaping operators allocate results from block arenas, so
// scan-shaped queries stay allocation-light. PlannerKnobs switches individual rules off for
// equivalence tests and ablations.
//
// The dialect is the subset of T-SQL the paper's appendix needs: CREATE
// TABLE (with PRIMARY KEY), CREATE CLUSTERED INDEX, CREATE COLUMNAR
// PROJECTION, EXPLAIN [ANALYZE], INSERT ... VALUES / SELECT, SELECT with
// JOIN/CROSS JOIN/WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, UPDATE, DELETE,
// TRUNCATE TABLE, and DROP TABLE. See parser.go for the grammar.
// Results come back materialised (DB.Query) or streamed from the plan
// (DB.QueryIter).
//
// Storage contract: a Table is a B+tree in clustered-key order with two
// write paths — per-row Insert (one descent per row) and BulkInsert
// (encode once, sort the run, build packed pages bottom-up), freely
// mixable — or column-primary colstore segments (LoadColumnar), and
// cursor reads with lazy column decode (SetEagerColumns / Decoded).
// Writes serialise on the table's mutex; any number of cursors may read
// one table concurrently (each goroutine using its own cursor), and a
// pinned view (AcquireView) gives concurrent zone sweeps in
// internal/zone one immutable version each. See ARCHITECTURE.md for the
// layer map.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type is a column or value type.
type Type int

// Value types. TNull is the type of the SQL NULL literal.
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "BIGINT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "TEXT"
	case TBool:
		return "BIT"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is a runtime SQL value.
type Value struct {
	T Type
	I int64
	F float64
	S string
	B bool
}

// Convenience constructors.
func Null() Value            { return Value{T: TNull} }
func Int(v int64) Value      { return Value{T: TInt, I: v} }
func Float(v float64) Value  { return Value{T: TFloat, F: v} }
func String(v string) Value  { return Value{T: TString, S: v} }
func Bool(v bool) Value      { return Value{T: TBool, B: v} }
func (v Value) IsNull() bool { return v.T == TNull }

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.T {
	case TInt:
		return float64(v.I), nil
	case TFloat:
		return v.F, nil
	}
	return 0, fmt.Errorf("sqldb: cannot use %s value as a number", v.T)
}

// AsInt coerces numeric values to int64 (floats truncate toward zero, the
// T-SQL CAST(x AS INT) behaviour).
func (v Value) AsInt() (int64, error) {
	switch v.T {
	case TInt:
		return v.I, nil
	case TFloat:
		return int64(v.F), nil
	}
	return 0, fmt.Errorf("sqldb: cannot use %s value as an integer", v.T)
}

// AsBool interprets the value as a condition result: SQL three-valued logic
// collapses NULL to false at the WHERE clause.
func (v Value) AsBool() bool { return v.T == TBool && v.B }

// String formats the value for result display.
func (v Value) String() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two non-null values of comparable types. It returns
// -1, 0, +1 and an error for incomparable types. Numeric types compare
// mutually (two BIGINTs exactly, a FLOAT on either side as float64);
// strings compare lexicographically (case-sensitive); bools compare
// false < true.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("sqldb: NULL is not comparable")
	}
	if isNumeric(a.T) && isNumeric(b.T) {
		return numCompare(a, b), nil
	}
	if a.T == TString && b.T == TString {
		return strings.Compare(a.S, b.S), nil
	}
	if a.T == TBool && b.T == TBool {
		switch {
		case !a.B && b.B:
			return -1, nil
		case a.B && !b.B:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("sqldb: cannot compare %s with %s", a.T, b.T)
}

// CompareForSort orders values with NULLs first, for ORDER BY and sort
// operators; values of incomparable types order by type tag so sorting is
// total.
func CompareForSort(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if c, err := Compare(a, b); err == nil {
		return c
	}
	switch {
	case a.T < b.T:
		return -1
	case a.T > b.T:
		return 1
	}
	return 0
}

// Equal reports SQL equality of two non-null values (numeric cross-type
// equality included). NULLs are never equal.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// GroupKey renders a value as a hashable group/join key. NULLs group
// together (SQL GROUP BY semantics).
func (v Value) GroupKey() string {
	switch v.T {
	case TNull:
		return "\x00N"
	case TInt:
		return "\x01" + strconv.FormatInt(v.I, 10)
	case TFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			// Integral floats must join with equal ints.
			return "\x01" + strconv.FormatInt(int64(v.F), 10)
		}
		return "\x02" + strconv.FormatFloat(v.F, 'b', -1, 64)
	case TString:
		return "\x03" + v.S
	case TBool:
		if v.B {
			return "\x04t"
		}
		return "\x04f"
	}
	return "?"
}

// NeedsCoerce reports whether CoerceTo(t) would do more than return v
// unchanged. The write paths guard their CoerceTo calls with it so the
// hot encode loops skip the call for already-typed values (the common
// case in bulk ingest); keep it in lock-step with CoerceTo's first line.
func (v Value) NeedsCoerce(t Type) bool { return !v.IsNull() && v.T != t }

// CoerceTo converts v for storage into a column of type t, applying the
// implicit conversions T-SQL allows (int↔float, anything→text stays typed).
func (v Value) CoerceTo(t Type) (Value, error) {
	if v.IsNull() || v.T == t {
		return v, nil
	}
	switch t {
	case TInt:
		if v.T == TFloat {
			return Int(int64(v.F)), nil
		}
	case TFloat:
		if v.T == TInt {
			return Float(float64(v.I)), nil
		}
	case TBool:
		if v.T == TInt {
			return Bool(v.I != 0), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: cannot store %s value in %s column", v.T, t)
}

func isNumeric(t Type) bool { return t == TInt || t == TFloat }

// num is a numeric value as float64 (callers have checked isNumeric).
func (v Value) num() float64 {
	if v.T == TInt {
		return float64(v.I)
	}
	return v.F
}

// numCompare orders two numeric values: ints against ints exactly — SDSS
// objIDs use all 64 bits, past float64's 2^53 — anything else as float64,
// where NaN compares equal to everything.
func numCompare(a, b Value) int {
	if a.T == TInt && b.T == TInt {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	af, bf := a.num(), b.num()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}
