package astro

import (
	"math"
	"testing"
)

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox(10, 5, 0, 1); err == nil {
		t.Error("expected error for reversed ra range")
	}
	if _, err := NewBox(0, 1, 5, 5); err == nil {
		t.Error("expected error for empty dec range")
	}
	if _, err := NewBox(0, 1, -95, 0); err == nil {
		t.Error("expected error for dec below -90")
	}
	if _, err := NewBox(172, 185, -3, 5); err != nil {
		t.Errorf("paper import region rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, b := range [][4]float64{
		{nan, 196, 1, 3}, {194, nan, 1, 3}, {194, 196, nan, 3}, {194, 196, 1, nan},
		{nan, nan, nan, nan},
		{-inf, 196, 1, 3}, {194, inf, 1, 3}, {194, 196, -inf, 3}, {194, 196, 1, inf},
	} {
		if _, err := NewBox(b[0], b[1], b[2], b[3]); err == nil {
			t.Errorf("NewBox%v accepted a non-finite edge", b)
		}
	}
}

func TestPaperAreas(t *testing.T) {
	// Paper: target 11x6 = 66 deg^2 inside buffer 13x8 = 104 deg^2.
	target := MustBox(173, 184, -2, 4)
	if got := target.FlatArea(); got != 66 {
		t.Errorf("target flat area = %g, want 66", got)
	}
	buffer := target.Expand(1) // 13 x 8
	if got := buffer.FlatArea(); got != 104 {
		t.Errorf("buffer flat area = %g, want 104", got)
	}
	// Near the equator spherical and flat areas agree to well under 1%.
	if rel := math.Abs(target.SphericalArea()-66) / 66; rel > 0.01 {
		t.Errorf("spherical area deviates %g%% from flat", rel*100)
	}
}

func TestExpandClampsAtPoles(t *testing.T) {
	b := MustBox(0, 10, 85, 89)
	e := b.Expand(5)
	if e.MaxDec != 90 {
		t.Errorf("MaxDec = %g, want clamped to 90", e.MaxDec)
	}
	if e.MinDec != 80 {
		t.Errorf("MinDec = %g, want 80", e.MinDec)
	}
}

func TestContainsMatchesBetweenSemantics(t *testing.T) {
	b := MustBox(172.5, 184.5, -2.5, 4.5) // paper's spMakeCandidates bounds
	if !b.Contains(172.5, -2.5) || !b.Contains(184.5, 4.5) {
		t.Error("BETWEEN is inclusive; box must contain its corners")
	}
	if b.Contains(172.4999, 0) || b.Contains(0, 10) {
		t.Error("box contains points outside its bounds")
	}
}

func TestSplitDecCoversExactly(t *testing.T) {
	b := MustBox(172, 185, -3, 5)
	for _, n := range []int{1, 2, 3, 5, 7} {
		slabs := b.SplitDec(n)
		if len(slabs) != n {
			t.Fatalf("SplitDec(%d) returned %d slabs", n, len(slabs))
		}
		if slabs[0].MinDec != b.MinDec || slabs[n-1].MaxDec != b.MaxDec {
			t.Errorf("n=%d: slabs do not span the box", n)
		}
		var area float64
		for i, s := range slabs {
			area += s.FlatArea()
			if i > 0 && math.Abs(s.MinDec-slabs[i-1].MaxDec) > 1e-12 {
				t.Errorf("n=%d: gap between slab %d and %d", n, i-1, i)
			}
		}
		if math.Abs(area-b.FlatArea()) > 1e-9 {
			t.Errorf("n=%d: slab areas sum to %g, want %g", n, area, b.FlatArea())
		}
	}
}

func TestFieldsTiling(t *testing.T) {
	// A 2x1 deg box tiled with 0.5 deg fields gives 4x2 = 8 fields of
	// 0.25 deg^2 each, the TAM unit of work.
	b := MustBox(100, 102, 0, 1)
	fields := b.Fields(0.5)
	if len(fields) != 8 {
		t.Fatalf("got %d fields, want 8", len(fields))
	}
	var area float64
	for _, f := range fields {
		if math.Abs(f.FlatArea()-0.25) > 1e-9 {
			t.Errorf("field %v area %g, want 0.25", f, f.FlatArea())
		}
		area += f.FlatArea()
	}
	if math.Abs(area-b.FlatArea()) > 1e-9 {
		t.Errorf("fields sum to %g, want %g", area, b.FlatArea())
	}
}

func TestFieldsClipPartial(t *testing.T) {
	b := MustBox(0, 1.2, 0, 0.7)
	fields := b.Fields(0.5)
	var area float64
	for _, f := range fields {
		if f.MaxRa > b.MaxRa+1e-12 || f.MaxDec > b.MaxDec+1e-12 {
			t.Errorf("field %v exceeds box %v", f, b)
		}
		area += f.FlatArea()
	}
	if math.Abs(area-b.FlatArea()) > 1e-9 {
		t.Errorf("clipped fields sum to %g, want %g", area, b.FlatArea())
	}
}

func TestIntersect(t *testing.T) {
	a := MustBox(0, 10, 0, 10)
	b := MustBox(5, 15, 5, 15)
	got, ok := a.Intersect(b)
	if !ok || got != (Box{MinRa: 5, MaxRa: 10, MinDec: 5, MaxDec: 10}) {
		t.Errorf("Intersect = %v ok=%v", got, ok)
	}
	c := MustBox(20, 30, 0, 10)
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint boxes reported as intersecting")
	}
}
