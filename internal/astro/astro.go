// Package astro provides the spherical-astronomy primitives used throughout
// the MaxBCG reproduction: equatorial coordinates, unit vectors on the
// celestial sphere, angular distances, and the zone mapping of
// Gray et al., "There Goes the Neighborhood" (MSR-TR-2004-32), which the
// paper uses to turn spherical neighbor searches into relational range scans.
//
// Conventions follow the SDSS catalog: right ascension (ra) and declination
// (dec) are in degrees, ra in [0, 360) and dec in [-90, +90]. Angular
// distances are reported in degrees unless noted otherwise.
package astro

import "math"

// Deg2Rad converts degrees to radians.
const Deg2Rad = math.Pi / 180.0

// Rad2Deg converts radians to degrees.
const Rad2Deg = 180.0 / math.Pi

// ZoneHeightDeg is the standard SDSS zone height of 30 arcseconds, expressed
// in degrees. The paper's fGetNearbyObjEqZd uses this value.
const ZoneHeightDeg = 30.0 / 3600.0

// Vec3 is a unit vector on the celestial sphere.
type Vec3 struct {
	X, Y, Z float64
}

// UnitVector converts equatorial coordinates (degrees) to a unit vector.
// This is the (cx, cy, cz) triple stored in the SDSS Zone table.
func UnitVector(raDeg, decDeg float64) Vec3 {
	ra := raDeg * Deg2Rad
	dec := decDeg * Deg2Rad
	cosDec := math.Cos(dec)
	return Vec3{
		X: cosDec * math.Cos(ra),
		Y: cosDec * math.Sin(ra),
		Z: math.Sin(dec),
	}
}

// RaDec converts a unit vector back to equatorial coordinates in degrees,
// with ra normalized to [0, 360).
func (v Vec3) RaDec() (raDeg, decDeg float64) {
	ra := math.Atan2(v.Y, v.X) * Rad2Deg
	if ra < 0 {
		ra += 360
	}
	dec := math.Asin(clamp(v.Z, -1, 1)) * Rad2Deg
	return ra, dec
}

// Dot returns the dot product of two vectors.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Chord2 returns the squared chord length between two unit vectors.
// For two points separated by angle θ the chord is 2·sin(θ/2), so
// chord² = 4·sin²(θ/2). Comparing chord² against Chord2FromAngle(r) tests
// "within r degrees" without any trigonometry in the inner loop, exactly as
// the paper's zone join does with
//
//	@r2 > POWER(cx-@cx,2) + POWER(cy-@cy,2) + POWER(cz-@cz,2).
func (v Vec3) Chord2(w Vec3) float64 {
	dx := v.X - w.X
	dy := v.Y - w.Y
	dz := v.Z - w.Z
	return dx*dx + dy*dy + dz*dz
}

// Chord2FromAngle returns the squared chord length subtended by an angle of
// rDeg degrees: 4·sin²(r/2).
func Chord2FromAngle(rDeg float64) float64 {
	s := math.Sin(rDeg * Deg2Rad / 2)
	return 4 * s * s
}

// AngleFromChord converts a chord length between unit vectors to the
// subtended angle in degrees.
func AngleFromChord(chord float64) float64 {
	return 2 * math.Asin(clamp(chord/2, -1, 1)) * Rad2Deg
}

// Distance returns the exact angular separation in degrees between two
// equatorial positions, computed through the chord (numerically stable for
// small separations, unlike acos of a dot product).
func Distance(ra1, dec1, ra2, dec2 float64) float64 {
	v := UnitVector(ra1, dec1)
	w := UnitVector(ra2, dec2)
	return AngleFromChord(math.Sqrt(v.Chord2(w)))
}

// ChordDistanceDeg mimics the paper's fGetNearbyObjEqZd distance column: the
// raw chord length divided by Deg2Rad. For small separations this equals the
// angular separation in degrees to first order; the paper stores exactly this
// quantity, so we reproduce it (tests bound its error against Distance).
func ChordDistanceDeg(ra1, dec1, ra2, dec2 float64) float64 {
	v := UnitVector(ra1, dec1)
	w := UnitVector(ra2, dec2)
	return math.Sqrt(v.Chord2(w)) / Deg2Rad
}

// ZoneID returns the zone number of a declination for a given zone height in
// degrees: floor((dec + 90) / h). This is the paper's zone formula.
func ZoneID(decDeg, zoneHeightDeg float64) int {
	return int(math.Floor((decDeg + 90.0) / zoneHeightDeg))
}

// ZoneRange returns the inclusive range of zones that can contain points
// within rDeg of decDeg, i.e. floor((dec±r+90)/h).
func ZoneRange(decDeg, rDeg, zoneHeightDeg float64) (minZone, maxZone int) {
	minZone = ZoneID(decDeg-rDeg, zoneHeightDeg)
	maxZone = ZoneID(decDeg+rDeg, zoneHeightDeg)
	return minZone, maxZone
}

// ZoneDecBounds returns the declination interval [lo, hi) covered by a zone.
func ZoneDecBounds(zoneID int, zoneHeightDeg float64) (lo, hi float64) {
	lo = float64(zoneID)*zoneHeightDeg - 90
	return lo, lo + zoneHeightDeg
}

// RaCover answers, zone by zone, how wide an ra interval covers one circle
// of radius rDeg centred at declination decDeg. It holds the circle's own
// trigonometry (sin/cos of the centre declination, cos r, the tangent
// declination and the half-width there), so a search walking every zone
// the circle overlaps pays for it once, not once per zone.
type RaCover struct {
	decDeg, rDeg   float64
	sinDec, cosDec float64
	cosR           float64
	peak           float64 // tangent declination in degrees; NaN if the circle has none
	peakWhole      bool    // at the tangent declination the circle spans every ra
	peakX          float64 // half-width at the tangent declination, unless peakWhole
}

// NewRaCover precomputes the per-circle terms of HalfWidth.
func NewRaCover(decDeg, rDeg float64) RaCover {
	c := RaCover{decDeg: decDeg, rDeg: rDeg, peak: math.NaN()}
	c.sinDec, c.cosDec = math.Sincos(decDeg * Deg2Rad)
	c.cosR = math.Cos(rDeg * Deg2Rad)
	if sp := c.sinDec / c.cosR; math.Abs(sp) <= 1 {
		c.peak = math.Asin(sp) * Rad2Deg
		s := math.Sin(rDeg*Deg2Rad) / math.Max(c.cosDec, 1e-12)
		if s >= 1 {
			c.peakWhole = true
		} else {
			c.peakX = math.Asin(s) * Rad2Deg
		}
	}
	return c
}

// HalfWidth returns the half-width @x of the ra interval that must be
// scanned inside zone zoneID to cover the circle. It reproduces the
// narrowing logic of fGetNearbyObjEqZd — zones away from the centre zone
// subtend a narrower ra range, stretched by 1/cos(dec) away from the
// equator — made conservative at high declination: the numerator uses the
// zone edge nearest the centre (largest chord) while the cosine uses the
// declination of largest magnitude the circle reaches inside the zone
// (strongest stretching), so the window never undershoots.
func (c *RaCover) HalfWidth(zoneID int, zoneHeightDeg float64) float64 {
	const epsilon = 1e-9
	zLo, zHi := ZoneDecBounds(zoneID, zoneHeightDeg)
	lo := math.Max(zLo, c.decDeg-c.rDeg)
	hi := math.Min(zHi, c.decDeg+c.rDeg)
	if lo > hi {
		return epsilon // zone does not meet the circle's declination band
	}
	// Exact spherical geometry: for a point at declination δ′ on the
	// circle of radius r around (α, δ), cos Δα = (cos r − sin δ sin δ′) /
	// (cos δ cos δ′). Δα(δ′) is unimodal with its peak at the tangent
	// declination sin δ′ = sin δ / cos r, so the maximum over the zone is
	// attained at a clipped endpoint or at that interior peak. (The
	// paper's planar √(r²−Δδ²)/cos δ formula undershoots near the poles.)
	x := math.Max(c.dra(lo), c.dra(hi))
	if c.peak >= lo && c.peak <= hi {
		if c.peakWhole {
			return 180
		}
		x = math.Max(x, c.peakX)
	}
	return x + epsilon
}

// dra is the ra half-width of the circle at declination decP.
func (c *RaCover) dra(decP float64) float64 {
	sinP, cosP := math.Sincos(decP * Deg2Rad)
	den := c.cosDec * cosP
	if den < 1e-12 {
		return 180
	}
	v := (c.cosR - c.sinDec*sinP) / den
	if v <= -1 {
		return 180
	}
	if v >= 1 {
		return 0
	}
	return math.Acos(v) * Rad2Deg
}

// RaWindows splits the ra interval [raDeg−halfWidthDeg, raDeg+halfWidthDeg]
// into the segments of [0, 360) it covers. A window that straddles the
// ra = 0°/360° seam yields two segments, so a range scan over ra-sorted
// storage sees every neighbour of a centre near the seam. raDeg must be in
// [0, 360); segments come back ascending, inclusive on both ends.
func RaWindows(raDeg, halfWidthDeg float64) (segs [2][2]float64, n int) {
	if halfWidthDeg >= 180 {
		segs[0] = [2]float64{0, 360}
		return segs, 1
	}
	lo, hi := raDeg-halfWidthDeg, raDeg+halfWidthDeg
	switch {
	case lo < 0:
		segs[0] = [2]float64{0, hi}
		segs[1] = [2]float64{lo + 360, 360}
		return segs, 2
	case hi > 360:
		segs[0] = [2]float64{0, hi - 360}
		segs[1] = [2]float64{lo, 360}
		return segs, 2
	default:
		segs[0] = [2]float64{lo, hi}
		return segs, 1
	}
}

// NormalizeRa maps an ra value into [0, 360).
func NormalizeRa(raDeg float64) float64 {
	raDeg = math.Mod(raDeg, 360)
	if raDeg < 0 {
		raDeg += 360
	}
	return raDeg
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
