package zone

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/colstore"
	"repro/internal/sqldb"
)

// Columnar zone sweep: the row sweep decodes 7 of 10 row-major columns per
// chord test just to run float arithmetic over ra/cx/cy/cz. The columnar
// zone store (internal/colstore) keeps the same rows as column-major
// segment pages — packed float64 arrays per column, one zone per segment
// run, per-segment min/max ra in an in-memory directory — so the chord
// test becomes a pure scan over raw float slices: no key decode, no null
// bitmap, no per-row Value materialisation. Window skipping happens at
// page granularity through the directory bounds, the columnar analogue of
// the row path's cursor re-seek.
//
// The arithmetic, the activation/expiry rules, and the emission order are
// the row sweep's exactly (shared through the zoneSweeper drivers in
// batch.go), so a Sweep over the Columnar source is bit-identical to the
// same Sweep over the Rows source — pinned by the equivalence tests in
// colsweep_test.go.

// Schema indices of the zone table's columns, shared by ZoneTableColumns
// (the row store) and ColumnarZoneSchema (the column segments). A tail's
// columns follow colRi.
const (
	colZoneID = iota
	colObjID
	colRa
	colDec
	colCx
	colCy
	colCz
	colI
	colGr
	colRi
)

// ColumnarZoneSchema returns the colstore schema of a zone table's
// column segments: the columns of ZoneTableColumns(tail...), same names,
// same order, with TInt mapped to Int64 and TFloat to Float64.
func ColumnarZoneSchema(tail ...Tail) colstore.Schema {
	cols := ZoneTableColumns(tail...)
	sch := make(colstore.Schema, len(cols))
	for i, c := range cols {
		k := colstore.Float64
		if c.Type == sqldb.TInt {
			k = colstore.Int64
		}
		sch[i] = colstore.Column{Name: c.Name, Kind: k}
	}
	return sch
}

// columnarSweepers checks that ct has the layout Columnar requires, and
// the photometry a sweep with windows cuts on, before a sweep trusts it.
func columnarSweepers(ct *colstore.Table, windows bool) (func() zoneSweeper, error) {
	if ct == nil {
		return nil, fmt.Errorf("zone: nil columnar zone table")
	}
	sch, zs := ct.Schema(), ColumnarZoneSchema()
	if len(sch) < chordTestCols || !sch[:chordTestCols].Equal(zs[:chordTestCols]) ||
		ct.GroupCol() != colZoneID || ct.SortCol() != colRa {
		return nil, fmt.Errorf("zone: columnar table is not (zoneid, ra)-clustered with the zone position columns")
	}
	photometry := len(sch) >= len(zs) && sch[chordTestCols:len(zs)].Equal(zs[chordTestCols:])
	if windows && !photometry {
		return nil, fmt.Errorf("zone: sweep windows need the zone table's photometry columns (i, gr, ri)")
	}
	return func() zoneSweeper { return &colSweeper{t: ct, photometry: photometry} }, nil
}

// colSweeper is the zoneSweeper over the columnar zone store: one segment
// scanner (reused column scratch) per worker. Without photometry its hits
// carry zero i, gr, ri, read from zeros.
type colSweeper struct {
	t          *colstore.Table
	photometry bool
	scan       *colstore.Scanner
	active     []batchWindow
	zeros      []float64
}

func (s *colSweeper) close() {}

// sweepZone is the columnar kernel. Every column a hit needs is hoisted
// into a slice once per segment, and each (active window, row) pair is
// tested cheapest-rejection first: the probe's Window (a handful of
// compares that drop ~98 % of the MaxBCG neighbourhood), then the chord
// test, and only a survivor pays for its Distance (a square root).
func (s *colSweeper) sweepZone(ws []batchWindow, ps *probeSet, emit func(int, ZoneRow)) error {
	centers, r2s, wins := ps.centers, ps.r2s, ps.windows
	if s.scan == nil {
		s.scan = s.t.NewScanner()
	}
	segs := s.t.GroupSegments(int64(ws[0].zone))
	active := s.active[:0]
	defer func() { s.active = active[:0] }()
	minHi := math.Inf(1) // smallest hi among active
	k := 0
scan:
	for _, m := range segs {
		if len(active) == 0 {
			if k >= len(ws) {
				// Every window is expired; nothing left to match.
				break
			}
			if m.MaxSort < ws[k].lo {
				// Window skipping: the directory bound proves no remaining
				// window reaches into this page, so don't fetch it — the
				// columnar analogue of the row cursor's gap re-seek.
				continue
			}
		}
		if err := s.scan.Load(m); err != nil {
			return err
		}
		ra := s.scan.Floats(colRa)
		cx := s.scan.Floats(colCx)
		cy := s.scan.Floats(colCy)
		cz := s.scan.Floats(colCz)
		objID := s.scan.Ints(colObjID)
		dec := s.scan.Floats(colDec)
		var iMag, gr, ri []float64
		if s.photometry {
			iMag, gr, ri = s.scan.Floats(colI), s.scan.Floats(colGr), s.scan.Floats(colRi)
		} else {
			if len(s.zeros) < len(ra) {
				s.zeros = make([]float64, len(ra))
			}
			iMag, gr, ri = s.zeros, s.zeros, s.zeros
		}
		for r := 0; r < len(ra); r++ {
			rav := ra[r]
			for k < len(ws) && ws[k].lo <= rav {
				active = append(active, ws[k])
				if ws[k].hi < minHi {
					minHi = ws[k].hi
				}
				k++
			}
			if rav > minHi {
				active, minHi = expire(active, rav)
			}
			if len(active) == 0 {
				if k >= len(ws) {
					break scan
				}
				// Gap inside the segment: hop straight to the first row the
				// next window can cover instead of testing every row.
				r += sort.SearchFloat64s(ra[r+1:], ws[k].lo)
				continue
			}
			cxv, cyv, czv := cx[r], cy[r], cz[r]
			idv, iv, grv, riv := objID[r], iMag[r], gr[r], ri[r]
			for _, w := range active {
				if wins != nil && !wins[w.probe].Contains(idv, iv, grv, riv) {
					continue
				}
				c := &centers[w.probe]
				dx := cxv - c.X
				dy := cyv - c.Y
				dz := czv - c.Z
				c2 := dx*dx + dy*dy + dz*dz
				if c2 >= r2s[w.probe] {
					continue
				}
				emit(int(w.probe), ZoneRow{ObjID: idv, Ra: rav, Dec: dec[r], Distance: chordDeg(c2), I: iv, Gr: grv, Ri: riv})
			}
		}
	}
	return nil
}
