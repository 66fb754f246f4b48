package sqldb

import (
	"fmt"

	"repro/internal/colstore"
)

// BuildColumnarProjection materialises a column-major snapshot of the
// table's current rows (internal/colstore segment pages) and attaches it
// as the table's columnar projection: the work of CREATE COLUMNAR
// PROJECTION ON t. The planner's ColumnarScan and the batched zone sweeps
// then iterate packed column arrays instead of decoding B+tree rows.
//
// The projection mirrors the table column for column, so it can answer any
// scan the row store answers. That forces three shape requirements, all
// met by zone-shaped tables such as the pipeline's Zone and CandZone
// (which are column-primary instead, see LoadColumnar):
//
//   - every column is numeric (TInt or TFloat; colstore packs 8-byte
//     values, no strings and no null bitmap),
//   - the clustered key leads with an int column (the segment group — a
//     zone id) followed by a float column (the in-group sort — ra), so one
//     clustered-order scan feeds the colstore.Builder already grouped and
//     sorted,
//   - no stored value is NULL.
//
// The build runs under the table's writer lock: the version it scans is
// the version the projection attaches to, so a view that carries a
// non-nil Columnar() always covers exactly that view's rows. Any later
// write publishes a version without the projection.
func (t *Table) BuildColumnarProjection() (*colstore.Table, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	if v.colPrimary() {
		return v.columnar, nil // the rows already are one
	}
	tv := TableView{t: t, v: v}
	keyCols := tv.KeyCols()
	if len(keyCols) < 2 {
		return nil, fmt.Errorf("sqldb: COLUMNAR PROJECTION ON %s: clustered key needs at least (int, float) leading columns, have %d key column(s)",
			t.Name, len(keyCols))
	}
	groupCol, sortCol := keyCols[0], keyCols[1]
	if t.Cols[groupCol].Type != TInt {
		return nil, fmt.Errorf("sqldb: COLUMNAR PROJECTION ON %s: leading key column %s must be an integer (the segment group)",
			t.Name, t.Cols[groupCol].Name)
	}
	if t.Cols[sortCol].Type != TFloat {
		return nil, fmt.Errorf("sqldb: COLUMNAR PROJECTION ON %s: second key column %s must be a float (the in-group sort)",
			t.Name, t.Cols[sortCol].Name)
	}
	sch := make(colstore.Schema, len(t.Cols))
	nints, nfloats := 0, 0
	for i, c := range t.Cols {
		switch c.Type {
		case TInt:
			sch[i] = colstore.Column{Name: c.Name, Kind: colstore.Int64}
			nints++
		case TFloat:
			sch[i] = colstore.Column{Name: c.Name, Kind: colstore.Float64}
			nfloats++
		default:
			return nil, fmt.Errorf("sqldb: COLUMNAR PROJECTION ON %s: column %s has non-numeric type %s",
				t.Name, c.Name, c.Type)
		}
	}
	b, err := colstore.NewBuilder(t.pool, sch, groupCol, sortCol)
	if err != nil {
		return nil, err
	}
	// One clustered-order scan feeds the builder: the key prefix (group,
	// sort) ascends by construction, which is exactly the input order the
	// builder demands. The scan needs no reclaimer guard — we hold the
	// writer lock, and only the lock holder retires pages.
	cur, err := tv.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	ints := make([]int64, nints)
	floats := make([]float64, nfloats)
	for cur.Next() {
		row := cur.Row()
		ni, nf := 0, 0
		for i, c := range t.Cols {
			v := row[i]
			if v.IsNull() {
				return nil, fmt.Errorf("sqldb: COLUMNAR PROJECTION ON %s: column %s holds NULL (segments pack values only)",
					t.Name, c.Name)
			}
			if c.Type == TInt {
				ints[ni] = v.I
				ni++
			} else {
				floats[nf] = v.F
				nf++
			}
		}
		if err := b.Add(ints, floats); err != nil {
			return nil, err
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	ct, err := b.Finish()
	if err != nil {
		return nil, err
	}
	// Attach to the exact version we scanned. SetColumnar would re-lock
	// t.mu, so publish inline: same tree, projection added (a replaced
	// one retires).
	nv := *v
	nv.seq++
	nv.columnar = ct
	t.publishLocked(v, &nv)
	return ct, nil
}

// projectionCovers reports whether ct is a full-width columnar projection
// of t's schema — same column count, names and kinds in order — so a
// ColumnarScan can stand in for a row scan. Projections built by
// BuildColumnarProjection and by the zone installer both qualify; anything
// narrower keeps the row plan.
func projectionCovers(t *Table, ct *colstore.Table) bool {
	if ct == nil {
		return false
	}
	sch := ct.Schema()
	if len(sch) != len(t.Cols) {
		return false
	}
	for i, c := range t.Cols {
		switch c.Type {
		case TInt:
			if sch[i].Kind != colstore.Int64 {
				return false
			}
		case TFloat:
			if sch[i].Kind != colstore.Float64 {
				return false
			}
		default:
			return false
		}
		if sch[i].Name != c.Name {
			return false
		}
	}
	return true
}
