package sqldb

import (
	"context"
	"fmt"
	"math"
	"strings"
)

// ScalarFunc is a registered scalar function: the engine's equivalent of a
// T-SQL scalar UDF such as the paper's dbo.fBCGr200.
type ScalarFunc func(args []Value) (Value, error)

// TVF is a registered table-valued function, the engine's equivalent of
// the paper's fGetNearbyObjEqZd: called with scalar arguments, it returns
// a rowset with a fixed schema.
//
// A TVF whose arguments reference columns of earlier FROM items is a
// lateral call: the Volcano plan invokes Fn once per outer row. When Batch
// is set, the physical planner instead lowers the whole join to a
// ZoneSweepJoin operator that hands every outer row's argument vector to
// Batch in one call — the plan-level twin of zone.Sweep, so paper SQL
// gets the batched sweep without Go code.
type TVF struct {
	Cols []Column
	Fn   func(args []Value) ([][]Value, error)

	// Batch answers many invocations in one pass: probes[i] holds the i-th
	// call's argument vector, and each result row arrives via
	// emit(probe, row). The row slice is only valid during the emit call
	// (the consumer copies); per probe, rows must arrive in exactly the
	// order Fn would return them, so the batched and per-row plans are
	// bit-identical. Optional; nil keeps the per-row lateral plan.
	//
	// ctx is the executing statement's context: implementations (the zone
	// sweep) must observe it so a cancelled query stops consuming CPU
	// mid-sweep.
	Batch func(ctx context.Context, probes [][]Value, emit func(probe int, row []Value)) error

	// Source optionally names the table the TVF reads. The planner lowers
	// to a ZoneSweepJoin only while the table is column-primary (its
	// segments are all the zone sweep reads), and EXPLAIN shows them as
	// its ColumnarScan access path; a row table (a column-primary one
	// after a write, until CREATE CLUSTERED COLUMNSTORE INDEX) keeps the
	// per-row TVFApply plan over Fn.
	Source *Table

	// Access labels the access path for EXPLAIN when the TVF reads no
	// local table at all — a federated sweep over remote stripe
	// workers (internal/fed) shows its fan-out here. Ignored when
	// Source is set.
	Access string
}

func need(args []Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("sqldb: %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

// float1 wraps a 1-argument float function with NULL propagation.
func float1(name string, f func(float64) (float64, error)) ScalarFunc {
	return func(args []Value) (Value, error) {
		if err := need(args, 1, name); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		x, err := args[0].AsFloat()
		if err != nil {
			return Value{}, err
		}
		y, err := f(x)
		if err != nil {
			return Value{}, err
		}
		return Float(y), nil
	}
}

var builtins map[string]ScalarFunc

func init() {
	builtins = map[string]ScalarFunc{
		"PI": func(args []Value) (Value, error) {
			if err := need(args, 0, "PI"); err != nil {
				return Value{}, err
			}
			return Float(math.Pi), nil
		},
		"POWER": func(args []Value) (Value, error) {
			if err := need(args, 2, "POWER"); err != nil {
				return Value{}, err
			}
			if args[0].IsNull() || args[1].IsNull() {
				return Null(), nil
			}
			x, err := args[0].AsFloat()
			if err != nil {
				return Value{}, err
			}
			y, err := args[1].AsFloat()
			if err != nil {
				return Value{}, err
			}
			return Float(math.Pow(x, y)), nil
		},
		"SQRT": float1("SQRT", func(x float64) (float64, error) {
			if x < 0 {
				return 0, fmt.Errorf("sqldb: SQRT of negative value %g", x)
			}
			return math.Sqrt(x), nil
		}),
		"ABS": func(args []Value) (Value, error) {
			if err := need(args, 1, "ABS"); err != nil {
				return Value{}, err
			}
			v := args[0]
			switch v.T {
			case TNull:
				return Null(), nil
			case TInt:
				if v.I < 0 {
					return Int(-v.I), nil
				}
				return v, nil
			case TFloat:
				return Float(math.Abs(v.F)), nil
			}
			return Value{}, fmt.Errorf("sqldb: ABS of %s", v.T)
		},
		"FLOOR":   float1("FLOOR", func(x float64) (float64, error) { return math.Floor(x), nil }),
		"CEILING": float1("CEILING", func(x float64) (float64, error) { return math.Ceil(x), nil }),
		"LOG": float1("LOG", func(x float64) (float64, error) {
			if x <= 0 {
				return 0, fmt.Errorf("sqldb: LOG of non-positive value %g", x)
			}
			return math.Log(x), nil
		}),
		"LOG10": float1("LOG10", func(x float64) (float64, error) {
			if x <= 0 {
				return 0, fmt.Errorf("sqldb: LOG10 of non-positive value %g", x)
			}
			return math.Log10(x), nil
		}),
		"EXP":     float1("EXP", func(x float64) (float64, error) { return math.Exp(x), nil }),
		"SIN":     float1("SIN", func(x float64) (float64, error) { return math.Sin(x), nil }),
		"COS":     float1("COS", func(x float64) (float64, error) { return math.Cos(x), nil }),
		"TAN":     float1("TAN", func(x float64) (float64, error) { return math.Tan(x), nil }),
		"ASIN":    float1("ASIN", func(x float64) (float64, error) { return math.Asin(x), nil }),
		"ACOS":    float1("ACOS", func(x float64) (float64, error) { return math.Acos(x), nil }),
		"ATAN":    float1("ATAN", func(x float64) (float64, error) { return math.Atan(x), nil }),
		"RADIANS": float1("RADIANS", func(x float64) (float64, error) { return x * math.Pi / 180, nil }),
		"DEGREES": float1("DEGREES", func(x float64) (float64, error) { return x * 180 / math.Pi, nil }),
		"SIGN": float1("SIGN", func(x float64) (float64, error) {
			switch {
			case x > 0:
				return 1, nil
			case x < 0:
				return -1, nil
			}
			return 0, nil
		}),
		"ATN2": func(args []Value) (Value, error) {
			if err := need(args, 2, "ATN2"); err != nil {
				return Value{}, err
			}
			if args[0].IsNull() || args[1].IsNull() {
				return Null(), nil
			}
			y, err := args[0].AsFloat()
			if err != nil {
				return Value{}, err
			}
			x, err := args[1].AsFloat()
			if err != nil {
				return Value{}, err
			}
			return Float(math.Atan2(y, x)), nil
		},
		"ROUND": func(args []Value) (Value, error) {
			if len(args) != 1 && len(args) != 2 {
				return Value{}, fmt.Errorf("sqldb: ROUND expects 1 or 2 arguments")
			}
			if args[0].IsNull() {
				return Null(), nil
			}
			x, err := args[0].AsFloat()
			if err != nil {
				return Value{}, err
			}
			digits := int64(0)
			if len(args) == 2 {
				digits, err = args[1].AsInt()
				if err != nil {
					return Value{}, err
				}
			}
			scale := math.Pow(10, float64(digits))
			return Float(math.Round(x*scale) / scale), nil
		},
		"UPPER": func(args []Value) (Value, error) {
			if err := need(args, 1, "UPPER"); err != nil {
				return Value{}, err
			}
			if args[0].IsNull() {
				return Null(), nil
			}
			return String(strings.ToUpper(args[0].S)), nil
		},
		"LOWER": func(args []Value) (Value, error) {
			if err := need(args, 1, "LOWER"); err != nil {
				return Value{}, err
			}
			if args[0].IsNull() {
				return Null(), nil
			}
			return String(strings.ToLower(args[0].S)), nil
		},
		"LEN": func(args []Value) (Value, error) {
			if err := need(args, 1, "LEN"); err != nil {
				return Value{}, err
			}
			if args[0].IsNull() {
				return Null(), nil
			}
			return Int(int64(len(args[0].S))), nil
		},
		"COALESCE": func(args []Value) (Value, error) {
			for _, a := range args {
				if !a.IsNull() {
					return a, nil
				}
			}
			return Null(), nil
		},
		"ISNULL": func(args []Value) (Value, error) {
			if err := need(args, 2, "ISNULL"); err != nil {
				return Value{}, err
			}
			if args[0].IsNull() {
				return args[1], nil
			}
			return args[0], nil
		},
		"NULLIF": func(args []Value) (Value, error) {
			if err := need(args, 2, "NULLIF"); err != nil {
				return Value{}, err
			}
			if Equal(args[0], args[1]) {
				return Null(), nil
			}
			return args[0], nil
		},
	}
}

// aggKind is an aggregate function, resolved from its name at planning.
type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggKinds = map[string]aggKind{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// aggSpec is one aggregate call of a statement, compiled once: its kind
// and its argument over the source row. err is the arity error the first
// added row reports.
type aggSpec struct {
	kind aggKind
	star bool // COUNT(*)
	arg  evalFn
	err  error
}

func newAggSpec(call *Call, c *compiler) *aggSpec {
	name := strings.ToUpper(call.Name)
	s := &aggSpec{kind: aggKinds[name], star: call.Star}
	switch {
	case s.star:
	case len(call.Args) != 1:
		s.err = fmt.Errorf("sqldb: %s expects one argument", name)
	default:
		s.arg = c.compile(call.Args[0])
	}
	return s
}

// aggState accumulates one aggregate over a group.
type aggState struct {
	spec  *aggSpec
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   Value
	max   Value
	any   bool
}

func newAggState(s *aggSpec) aggState { return aggState{spec: s, isInt: true} }

// add folds one source row into the aggregate.
func (a *aggState) add(row []Value) error {
	s := a.spec
	if s.star {
		a.count++
		return nil
	}
	if s.err != nil {
		return s.err
	}
	v, err := s.arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	a.count++
	switch s.kind {
	case aggSum, aggAvg:
		x, err := v.AsFloat()
		if err != nil {
			return err
		}
		a.sum += x
		if v.T == TInt {
			a.sumI += v.I
		} else {
			a.isInt = false
		}
	case aggMin:
		if !a.any || CompareForSort(v, a.min) < 0 {
			a.min = v
		}
	case aggMax:
		if !a.any || CompareForSort(v, a.max) > 0 {
			a.max = v
		}
	}
	a.any = true
	return nil
}

// result returns the aggregate's final value.
func (a *aggState) result() Value {
	switch a.spec.kind {
	case aggCount:
		return Int(a.count)
	case aggSum:
		if a.count == 0 {
			return Null()
		}
		if a.isInt {
			return Int(a.sumI)
		}
		return Float(a.sum)
	case aggAvg:
		if a.count == 0 {
			return Null()
		}
		return Float(a.sum / float64(a.count))
	case aggMin:
		if !a.any {
			return Null()
		}
		return a.min
	case aggMax:
		if !a.any {
			return Null()
		}
		return a.max
	}
	return Null()
}
