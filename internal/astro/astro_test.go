package astro

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestUnitVectorRoundTrip(t *testing.T) {
	cases := []struct{ ra, dec float64 }{
		{0, 0}, {90, 0}, {180, 0}, {270, 0},
		{195.163, 2.5}, // MySkyServerDr1 centre from the paper appendix
		{172.5, -2.5}, {184.5, 4.5},
		{359.999, 89.9}, {0.001, -89.9},
	}
	for _, c := range cases {
		v := UnitVector(c.ra, c.dec)
		ra, dec := v.RaDec()
		if !almostEqual(ra, c.ra, 1e-9) || !almostEqual(dec, c.dec, 1e-9) {
			t.Errorf("round trip (%g,%g) -> (%g,%g)", c.ra, c.dec, ra, dec)
		}
		n := math.Sqrt(v.Dot(v))
		if !almostEqual(n, 1, 1e-12) {
			t.Errorf("unit vector norm %g for (%g,%g)", n, c.ra, c.dec)
		}
	}
}

func TestUnitVectorRoundTripProperty(t *testing.T) {
	f := func(raSeed, decSeed float64) bool {
		ra := NormalizeRa(raSeed)
		dec := math.Mod(decSeed, 89.0) // stay off the exact poles where ra is degenerate
		v := UnitVector(ra, dec)
		ra2, dec2 := v.RaDec()
		return almostEqual(ra2, ra, 1e-8) && almostEqual(dec2, dec, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistanceKnownValues(t *testing.T) {
	cases := []struct {
		ra1, dec1, ra2, dec2, want float64
	}{
		{0, 0, 0, 0, 0},
		{0, 0, 1, 0, 1},         // 1 degree along the equator
		{0, 0, 0, 1, 1},         // 1 degree in dec
		{0, 0, 180, 0, 180},     // antipodal on the equator
		{10, 89, 190, 89, 2},    // across the pole
		{0, 60, 2, 60, 0.99996}, // ra separation shrinks by cos(dec): 2*cos(60)=1 to 1st order
	}
	for _, c := range cases {
		got := Distance(c.ra1, c.dec1, c.ra2, c.dec2)
		if !almostEqual(got, c.want, 2e-4) {
			t.Errorf("Distance(%g,%g,%g,%g) = %g, want %g", c.ra1, c.dec1, c.ra2, c.dec2, got, c.want)
		}
	}
}

func TestChordDistanceApproximatesAngle(t *testing.T) {
	// The paper stores chord/Deg2Rad as "distance in degrees". For the
	// sub-degree radii MaxBCG uses, the relative error must be tiny.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ra := rng.Float64() * 360
		dec := rng.Float64()*120 - 60
		dr := rng.Float64() * 0.5 // up to 0.5 degrees, the MaxBCG search radius
		ra2 := ra + dr/math.Cos(dec*Deg2Rad)
		exact := Distance(ra, dec, ra2, dec)
		chord := ChordDistanceDeg(ra, dec, ra2, dec)
		if exact == 0 {
			continue
		}
		rel := math.Abs(chord-exact) / exact
		if rel > 1e-4 {
			t.Fatalf("chord distance error %g at separation %g deg", rel, exact)
		}
	}
}

func TestChord2FromAngleInverse(t *testing.T) {
	for _, r := range []float64{0.01, 0.1, 0.5, 1, 5, 30, 90, 179} {
		chord2 := Chord2FromAngle(r)
		back := AngleFromChord(math.Sqrt(chord2))
		if !almostEqual(back, r, 1e-9) {
			t.Errorf("AngleFromChord(sqrt(Chord2FromAngle(%g))) = %g", r, back)
		}
	}
}

func TestZoneIDFormula(t *testing.T) {
	h := ZoneHeightDeg
	cases := []struct {
		dec  float64
		want int
	}{
		{-90, 0},
		{-90 + h/2, 0},
		{-90 + h, 1},
		{0, int(90 / h)},
		{2.5, int(math.Floor((2.5 + 90) / h))},
	}
	for _, c := range cases {
		if got := ZoneID(c.dec, h); got != c.want {
			t.Errorf("ZoneID(%g) = %d, want %d", c.dec, got, c.want)
		}
	}
}

func TestZonePartitionProperty(t *testing.T) {
	// Every declination belongs to exactly one zone, and that zone's dec
	// bounds contain it: the zones partition the sphere.
	f := func(decSeed float64) bool {
		dec := math.Mod(decSeed, 90)
		z := ZoneID(dec, ZoneHeightDeg)
		lo, hi := ZoneDecBounds(z, ZoneHeightDeg)
		return dec >= lo-1e-12 && dec < hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestZoneRangeCoversRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		dec := rng.Float64()*160 - 80
		r := rng.Float64() * 0.6
		minZ, maxZ := ZoneRange(dec, r, ZoneHeightDeg)
		// Points at dec±r must land inside [minZ, maxZ].
		for _, d := range []float64{dec - r, dec, dec + r} {
			z := ZoneID(d, ZoneHeightDeg)
			if z < minZ || z > maxZ {
				t.Fatalf("dec %g r %g: zone %d outside [%d, %d]", dec, r, z, minZ, maxZ)
			}
		}
	}
}

func TestRaHalfWidthCoversCircle(t *testing.T) {
	// For any point Q within r of the centre, Q's ra must fall inside
	// centre.ra ± RaCover.HalfWidth for Q's zone. This is the correctness
	// condition for the zone search's ra pruning.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		ra := 50 + rng.Float64()*10
		dec := rng.Float64()*120 - 60
		r := 0.05 + rng.Float64()*0.5
		cen := ZoneID(dec, ZoneHeightDeg)

		// random point within the circle (rejection-free: polar sampling)
		theta := rng.Float64() * 2 * math.Pi
		rr := r * math.Sqrt(rng.Float64())
		qdec := dec + rr*math.Sin(theta)
		qra := ra + rr*math.Cos(theta)/math.Cos(qdec*Deg2Rad)
		if Distance(ra, dec, qra, qdec) > r {
			continue // tangent-plane sampling can slightly overshoot; skip
		}
		qz := ZoneID(qdec, ZoneHeightDeg)
		cov := NewRaCover(dec, r)
		x := cov.HalfWidth(qz, ZoneHeightDeg)
		if qra < ra-x || qra > ra+x {
			t.Fatalf("point (%g,%g) within %g of (%g,%g) escapes ra window ±%g (zone %d, cen %d)",
				qra, qdec, r, ra, dec, x, qz, cen)
		}
	}
}

func TestNormalizeRa(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {360, 0}, {361, 1}, {-1, 359}, {720.5, 0.5}, {-720, 0},
	}
	for _, c := range cases {
		if got := NormalizeRa(c.in); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalizeRa(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}
