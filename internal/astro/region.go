package astro

import (
	"fmt"
	"math"
)

// Box is an axis-aligned region in equatorial coordinates: an ra interval
// crossed with a dec interval. The paper's target (T) and buffer (B, P)
// areas are boxes, e.g. "11 deg x 6 deg = 66 deg2 inside a buffer area of
// 13 deg x 8 deg = 104 deg2".
//
// Boxes here do not wrap across ra=0; the survey regions used by the paper
// (ra 172–185) do not wrap either. NewBox rejects wrapping input.
type Box struct {
	MinRa, MaxRa   float64
	MinDec, MaxDec float64
}

// NewBox validates and returns a Box. Every edge must be finite (a NaN
// edge fails each check, since every comparison with NaN is false).
func NewBox(minRa, maxRa, minDec, maxDec float64) (Box, error) {
	b := Box{MinRa: minRa, MaxRa: maxRa, MinDec: minDec, MaxDec: maxDec}
	if !(minRa < maxRa) {
		return b, fmt.Errorf("astro: box ra range [%g, %g] is empty or wraps", minRa, maxRa)
	}
	if math.IsInf(minRa, 0) || math.IsInf(maxRa, 0) {
		return b, fmt.Errorf("astro: box ra range [%g, %g] is not finite", minRa, maxRa)
	}
	if !(minDec < maxDec) {
		return b, fmt.Errorf("astro: box dec range [%g, %g] is empty", minDec, maxDec)
	}
	if !(minDec >= -90 && maxDec <= 90) {
		return b, fmt.Errorf("astro: box dec range [%g, %g] outside [-90, 90]", minDec, maxDec)
	}
	return b, nil
}

// MustBox is NewBox that panics on invalid input; for tests and constants.
func MustBox(minRa, maxRa, minDec, maxDec float64) Box {
	b, err := NewBox(minRa, maxRa, minDec, maxDec)
	if err != nil {
		panic(err)
	}
	return b
}

// Contains reports whether the position lies inside the box (inclusive
// bounds, matching SQL BETWEEN in the paper's procedures).
func (b Box) Contains(raDeg, decDeg float64) bool {
	return raDeg >= b.MinRa && raDeg <= b.MaxRa &&
		decDeg >= b.MinDec && decDeg <= b.MaxDec
}

// Expand grows the box by marginDeg on every side, producing the buffer
// region the paper calls B (or P): "objects inside T and up to 0.5 deg away
// from T". Dec is clamped to the poles.
func (b Box) Expand(marginDeg float64) Box {
	return Box{
		MinRa:  b.MinRa - marginDeg,
		MaxRa:  b.MaxRa + marginDeg,
		MinDec: math.Max(b.MinDec-marginDeg, -90),
		MaxDec: math.Min(b.MaxDec+marginDeg, 90),
	}
}

// FlatArea returns the "survey" area in square degrees as the paper computes
// it: Δra × Δdec (the paper says 11×6 = 66 deg²). Near the equator this is
// very close to the true spherical area.
func (b Box) FlatArea() float64 {
	return (b.MaxRa - b.MinRa) * (b.MaxDec - b.MinDec)
}

// SphericalArea returns the exact area on the unit sphere in square degrees:
// Δra · (sin(maxDec) − sin(minDec)) · (180/π).
func (b Box) SphericalArea() float64 {
	dRa := (b.MaxRa - b.MinRa) * Deg2Rad
	band := math.Sin(b.MaxDec*Deg2Rad) - math.Sin(b.MinDec*Deg2Rad)
	return dRa * band * Rad2Deg * Rad2Deg
}

// Width returns the ra extent in degrees.
func (b Box) Width() float64 { return b.MaxRa - b.MinRa }

// Height returns the dec extent in degrees.
func (b Box) Height() float64 { return b.MaxDec - b.MinDec }

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[ra %g..%g, dec %g..%g]", b.MinRa, b.MaxRa, b.MinDec, b.MaxDec)
}

// SplitDec divides the box into n contiguous horizontal (declination) slabs
// of equal height, the decomposition used to spread zones across servers in
// the paper's Figure 6. n must be >= 1.
func (b Box) SplitDec(n int) []Box {
	if n < 1 {
		n = 1
	}
	out := make([]Box, n)
	h := b.Height() / float64(n)
	for i := 0; i < n; i++ {
		lo := b.MinDec + float64(i)*h
		hi := lo + h
		if i == n-1 {
			hi = b.MaxDec // avoid floating-point shortfall on the last slab
		}
		out[i] = Box{MinRa: b.MinRa, MaxRa: b.MaxRa, MinDec: lo, MaxDec: hi}
	}
	return out
}

// Fields tiles the box with sideDeg × sideDeg target fields, the TAM
// decomposition ("breaks the sky in 0.25 deg² fields", i.e. side 0.5°).
// Partial fields at the max edges are included and clipped to the box.
func (b Box) Fields(sideDeg float64) []Box {
	if sideDeg <= 0 {
		return nil
	}
	var out []Box
	for dec := b.MinDec; dec < b.MaxDec-1e-12; dec += sideDeg {
		hiDec := math.Min(dec+sideDeg, b.MaxDec)
		for ra := b.MinRa; ra < b.MaxRa-1e-12; ra += sideDeg {
			hiRa := math.Min(ra+sideDeg, b.MaxRa)
			out = append(out, Box{MinRa: ra, MaxRa: hiRa, MinDec: dec, MaxDec: hiDec})
		}
	}
	return out
}

// Intersect returns the overlap of two boxes and whether it is non-empty.
func (b Box) Intersect(o Box) (Box, bool) {
	r := Box{
		MinRa:  math.Max(b.MinRa, o.MinRa),
		MaxRa:  math.Min(b.MaxRa, o.MaxRa),
		MinDec: math.Max(b.MinDec, o.MinDec),
		MaxDec: math.Min(b.MaxDec, o.MaxDec),
	}
	if r.MinRa >= r.MaxRa || r.MinDec >= r.MaxDec {
		return Box{}, false
	}
	return r, true
}
