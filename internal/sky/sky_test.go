package sky

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/astro"
)

func TestNewKcorrValidation(t *testing.T) {
	if _, err := NewKcorr(1, 0.5); err == nil {
		t.Error("expected error for 1 step")
	}
	if _, err := NewKcorr(100, 0); err == nil {
		t.Error("expected error for zMax 0")
	}
	if _, err := NewKcorr(100, 2); err == nil {
		t.Error("expected error for zMax > 1.5")
	}
}

func TestKcorrPaperConfigurations(t *testing.T) {
	// TAM: 100 steps of 0.01. SQL: 1000 steps of 0.001.
	tam := MustNewKcorr(100, 0.5)
	sql := MustNewKcorr(1000, 0.5)
	if tam.Steps() != 100 || sql.Steps() != 1000 {
		t.Fatalf("steps = %d, %d", tam.Steps(), sql.Steps())
	}
	if math.Abs(tam.Rows[1].Z-tam.Rows[0].Z-0.005) > 1e-12 {
		t.Errorf("TAM dz = %g", tam.Rows[1].Z-tam.Rows[0].Z)
	}
	// Every TAM redshift must exist (to 1e-9) in the finer SQL table: the
	// finer table is a strict refinement.
	for _, r := range tam.Rows {
		s := sql.Lookup(r.Z)
		if math.Abs(s.Z-r.Z) > 1e-9 {
			t.Fatalf("TAM z=%g missing from SQL table (nearest %g)", r.Z, s.Z)
		}
	}
}

func TestKcorrMonotonicity(t *testing.T) {
	k := MustNewKcorr(500, 0.5)
	for i := 1; i < len(k.Rows); i++ {
		prev, cur := k.Rows[i-1], k.Rows[i]
		if cur.Z <= prev.Z {
			t.Fatalf("z not increasing at row %d", i)
		}
		if cur.I <= prev.I {
			t.Errorf("BCG apparent magnitude must fade with z: row %d", i)
		}
		if cur.Radius >= prev.Radius && prev.Radius < 4.0 {
			t.Errorf("1 Mpc angular radius must shrink with z: row %d (%g -> %g)", i, prev.Radius, cur.Radius)
		}
		if cur.Gr <= prev.Gr || cur.Ri <= prev.Ri {
			t.Errorf("red sequence colours must redden with z: row %d", i)
		}
		if cur.Ilim <= cur.I {
			t.Errorf("ilim must be fainter than the BCG magnitude: row %d", i)
		}
	}
	if !k.MemberBoundsMonotone() {
		t.Error("the analytic table must take fBCGCandidate's interval count")
	}
}

// TestChiBandMatchesBruteForce holds ChiBand to its definition on the
// analytic table and on copies with one column bent out of order or
// holding a NaN: row k is in [lo, hi) exactly when every monotone
// column's value lies in its interval, and a column that is not monotone
// narrows nothing.
func TestChiBandMatchesBruteForce(t *testing.T) {
	base := MustNewKcorr(300, 0.5)
	bend := func(f func(r *KcorrRow)) *Kcorr {
		k := &Kcorr{Rows: append([]KcorrRow(nil), base.Rows...)}
		f(&k.Rows[150])
		return k
	}
	tables := map[string]*Kcorr{
		"analytic": base,
		"bent I":   bend(func(r *KcorrRow) { r.I -= 1 }),
		"NaN Gr":   bend(func(r *KcorrRow) { r.Gr = math.NaN() }),
		"bent Ri":  bend(func(r *KcorrRow) { r.Ri += 1 }),
	}
	rng := rand.New(rand.NewSource(3))
	for name, k := range tables {
		sorted := map[string]bool{"I": name != "bent I", "Gr": name != "NaN Gr", "Ri": name != "bent Ri"}
		for q := 0; q < 2000; q++ {
			c := base.Rows[rng.Intn(len(base.Rows))]
			w := rng.Float64()
			iMin, iMax := c.I-3*w, c.I+3*w*rng.Float64()
			grMin, grMax := c.Gr-0.3*rng.Float64(), c.Gr+0.3*rng.Float64()
			riMin, riMax := c.Ri-0.2*rng.Float64(), c.Ri+0.2*rng.Float64()
			switch q % 10 {
			case 0:
				grMin, grMax = grMax, grMin // inverted: an empty band
			case 1, 2, 3: // bounds exactly on table values
				d := base.Rows[rng.Intn(len(base.Rows))]
				iMin, iMax, grMin, grMax, riMin, riMax = c.I, d.I, c.Gr, d.Gr, c.Ri, d.Ri
			}
			lo, hi := k.ChiBand(iMin, iMax, grMin, grMax, riMin, riMax)
			if hi < lo {
				t.Fatalf("%s: ChiBand = [%d, %d)", name, lo, hi)
			}
			for j, r := range k.Rows {
				in := (!sorted["I"] || r.I >= iMin && r.I <= iMax) &&
					(!sorted["Gr"] || r.Gr >= grMin && r.Gr <= grMax) &&
					(!sorted["Ri"] || r.Ri >= riMin && r.Ri <= riMax)
				if in != (j >= lo && j < hi) {
					t.Fatalf("%s query %d: row %d in band %v, ChiBand = [%d, %d)", name, q, j, in, lo, hi)
				}
			}
		}
	}
}

func TestKcorrPaperWorkedExample(t *testing.T) {
	// Paper (fIsCluster comment): "the r200 radius is, at ngal=100,
	// 1.78 [Mpc] which, at z=0.05, is 0.74 degrees."
	if r := R200Mpc(100); math.Abs(r-1.78) > 0.02 {
		t.Errorf("R200Mpc(100) = %g, want ~1.78", r)
	}
	k := MustNewKcorr(1000, 0.5)
	row := k.Lookup(0.05)
	got := row.Radius * R200Mpc(100)
	if math.Abs(got-0.74) > 0.08 {
		t.Errorf("angular r200 at z=0.05 = %g deg, want ~0.74", got)
	}
}

func TestKcorrLookup(t *testing.T) {
	k := MustNewKcorr(1000, 0.5)
	f := func(seed float64) bool {
		z := math.Mod(math.Abs(seed), 0.5)
		r := k.Lookup(z)
		// No other row may be closer.
		for _, o := range []KcorrRow{k.Lookup(z - 0.0005), k.Lookup(z + 0.0005)} {
			if math.Abs(o.Z-z) < math.Abs(r.Z-z)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, ok := k.LookupExact(k.Rows[17].Z); !ok {
		t.Error("LookupExact misses a tabulated redshift")
	}
	if _, ok := k.LookupExact(k.Rows[17].Z + 1e-4); ok {
		t.Error("LookupExact accepts a non-tabulated redshift")
	}
}

func TestSigmaFormulas(t *testing.T) {
	// Spot values of the paper's error model at i=18.
	if got := SigmaGrFor(18); math.Abs(got-2.089*math.Pow(10, 0.228*18-6)) > 1e-12 {
		t.Errorf("SigmaGrFor(18) = %g", got)
	}
	if got := SigmaRiFor(18); math.Abs(got-4.266*math.Pow(10, 0.206*18-6)) > 1e-12 {
		t.Errorf("SigmaRiFor(18) = %g", got)
	}
	if SigmaGrFor(20) <= SigmaGrFor(15) {
		t.Error("colour errors must grow for fainter galaxies")
	}
}

func testCatalog(t *testing.T, seed int64) *Catalog {
	t.Helper()
	cat, err := Generate(GenConfig{
		Region: astro.MustBox(195, 196, 2, 3),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestGenerateDensityCalibration(t *testing.T) {
	cat := testCatalog(t, 1)
	d := cat.DensityPerDeg2()
	if d < 13000 || d > 15000 {
		t.Errorf("galaxy density %g per deg², want ~14000", d)
	}
	perField := float64(len(cat.Truth)) / cat.Region.FlatArea() * 0.25
	if perField < 3 || perField > 6.5 {
		t.Errorf("clusters per 0.25 deg² field = %g, want ~4.5", perField)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := testCatalog(t, 42)
	b := testCatalog(t, 42)
	if len(a.Galaxies) != len(b.Galaxies) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Galaxies), len(b.Galaxies))
	}
	for i := range a.Galaxies {
		if a.Galaxies[i] != b.Galaxies[i] {
			t.Fatalf("galaxy %d differs between identical seeds", i)
		}
	}
	c := testCatalog(t, 43)
	same := 0
	for i := range a.Galaxies {
		if i < len(c.Galaxies) && a.Galaxies[i] == c.Galaxies[i] {
			same++
		}
	}
	if same == len(a.Galaxies) {
		t.Error("different seeds produced identical catalogs")
	}
}

func TestGenerateGalaxiesInsideRegion(t *testing.T) {
	cat := testCatalog(t, 3)
	for _, g := range cat.Galaxies {
		if !cat.Region.Contains(g.Ra, g.Dec) {
			t.Fatalf("galaxy %d at (%g, %g) outside region %v", g.ObjID, g.Ra, g.Dec, cat.Region)
		}
		if g.SigmaGr != SigmaGrFor(g.I) || g.SigmaRi != SigmaRiFor(g.I) {
			t.Fatalf("galaxy %d sigma columns inconsistent with i", g.ObjID)
		}
	}
}

func TestGenerateBCGsOnRidge(t *testing.T) {
	cat := testCatalog(t, 5)
	byID := make(map[int64]Galaxy, len(cat.Galaxies))
	for _, g := range cat.Galaxies {
		byID[g.ObjID] = g
	}
	for _, tc := range cat.Truth {
		bcg, ok := byID[tc.BCGObjID]
		if !ok {
			t.Fatalf("truth BCG %d not in catalog", tc.BCGObjID)
		}
		k := cat.Kcorr.Lookup(tc.Z)
		if math.Abs(bcg.I-k.I) > 4*0.30+0.01 {
			t.Errorf("BCG %d magnitude %g too far from ridge %g", tc.BCGObjID, bcg.I, k.I)
		}
		if math.Abs(bcg.Gr-k.Gr) > 4*0.030+0.01 || math.Abs(bcg.Ri-k.Ri) > 4*0.035+0.01 {
			t.Errorf("BCG %d colours off the red sequence", tc.BCGObjID)
		}
	}
}

func TestGenerateMembersSatisfyWindow(t *testing.T) {
	// Members that were not clipped must lie within the angular 1 Mpc and
	// r200 radii and inside the (BCG.i, ilim) magnitude window; this is
	// what makes them recoverable by the membership query.
	cat := testCatalog(t, 7)
	byID := make(map[int64]Galaxy, len(cat.Galaxies))
	for _, g := range cat.Galaxies {
		byID[g.ObjID] = g
	}
	for _, tc := range cat.Truth {
		k := cat.Kcorr.Lookup(tc.Z)
		bcg := byID[tc.BCGObjID]
		if tc.RadiusDeg > math.Min(k.Radius, k.Radius*R200Mpc(60))+1e-12 {
			t.Errorf("cluster %d placement radius %g exceeds the 1 Mpc / max-r200 bound", tc.BCGObjID, tc.RadiusDeg)
		}
		// Members are the NGal objects immediately after the BCG.
		for id := tc.BCGObjID + 1; id <= tc.BCGObjID+int64(tc.NGal); id++ {
			m, ok := byID[id]
			if !ok {
				continue
			}
			d := astro.Distance(bcg.Ra, bcg.Dec, m.Ra, m.Dec)
			if d > tc.RadiusDeg*1.001 {
				t.Errorf("member %d at %g deg exceeds placement radius %g", id, d, tc.RadiusDeg)
			}
			if m.I <= bcg.I || m.I > k.Ilim {
				t.Errorf("member %d magnitude %g outside (%g, %g]", id, m.I, bcg.I, k.Ilim)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{}); err == nil {
		t.Error("expected error for zero region")
	}
	if _, err := Generate(GenConfig{
		Region:        astro.MustBox(0, 1, 0, 1),
		GalaxyDensity: -5,
	}); err == nil {
		t.Error("expected error for negative density")
	}
	if _, err := Generate(GenConfig{
		Region: astro.MustBox(0, 1, 0, 1),
		MinZ:   0.4, MaxZ: 0.3,
	}); err == nil {
		t.Error("expected error for inverted z range")
	}
}

func TestCatalogSelect(t *testing.T) {
	cat := testCatalog(t, 11)
	sub := astro.MustBox(195.2, 195.8, 2.2, 2.8)
	sel := cat.Select(sub)
	if len(sel) == 0 {
		t.Fatal("empty selection from a dense catalog")
	}
	for _, g := range sel {
		if !sub.Contains(g.Ra, g.Dec) {
			t.Fatalf("selected galaxy outside box")
		}
	}
	// Selection count should scale with area.
	frac := float64(len(sel)) / float64(cat.Len())
	want := sub.FlatArea() / cat.Region.FlatArea()
	if math.Abs(frac-want) > 0.05 {
		t.Errorf("selection fraction %g, want ~%g", frac, want)
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	cat := testCatalog(t, 17)
	var buf bytes.Buffer
	if _, err := cat.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != cat.Seed || got.Region != cat.Region {
		t.Error("header fields differ after round trip")
	}
	if len(got.Galaxies) != len(cat.Galaxies) || len(got.Truth) != len(cat.Truth) {
		t.Fatalf("row counts differ after round trip")
	}
	for i := range got.Galaxies {
		a, b := cat.Galaxies[i], got.Galaxies[i]
		if a.ObjID != b.ObjID || a.Ra != b.Ra || a.Dec != b.Dec {
			t.Fatalf("galaxy %d identity differs", i)
		}
		// i, gr, ri travel as float32.
		if math.Abs(a.I-b.I) > 1e-5 || math.Abs(a.Gr-b.Gr) > 1e-6 || math.Abs(a.Ri-b.Ri) > 1e-6 {
			t.Fatalf("galaxy %d photometry differs beyond float32 precision", i)
		}
	}
	if got.Kcorr.Steps() != cat.Kcorr.Steps() {
		t.Fatal("kcorr steps differ")
	}
}

func TestCatalogFileRoundTrip(t *testing.T) {
	cat := testCatalog(t, 19)
	path := filepath.Join(t.TempDir(), "cat.bin")
	if err := cat.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != cat.Len() {
		t.Fatalf("file round trip lost rows: %d vs %d", got.Len(), cat.Len())
	}
}

func TestReadCatalogRejectsGarbage(t *testing.T) {
	if _, err := ReadCatalog(bytes.NewReader([]byte("not a catalog at all"))); err == nil {
		t.Error("expected error for bad magic")
	}
	var buf bytes.Buffer
	cat := testCatalog(t, 23)
	if _, err := cat.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-stream.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadCatalog(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated stream")
	}
}
