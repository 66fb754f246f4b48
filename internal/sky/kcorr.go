// Package sky generates the synthetic SDSS-like inputs the reproduction
// needs in place of the proprietary Sloan Digital Sky Survey catalog: a
// k-correction lookup table (the expected brightness and colour of a
// brightest-cluster galaxy as a function of redshift) and a galaxy catalog
// with injected galaxy clusters whose BCGs follow that table.
//
// The substitution is sound because MaxBCG consumes only the
// 5-space (ra, dec, g-r, r-i, i) plus per-object colour errors, so a
// synthetic catalog calibrated to the paper's densities (~14,000 galaxies
// per square degree, ~3% BCG candidates, ~4.5 clusters per 0.25 deg² field)
// exercises the same code paths and selectivities as SDSS DR1.
package sky

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/astro"
)

// KcorrRow is one row of the k-correction table: the expected properties of
// a BCG observed at redshift Z. It mirrors the paper's Kcorr schema.
type KcorrRow struct {
	Zid    int     // 1-based redshift index (identity PK in the paper)
	Z      float64 // redshift
	I      float64 // apparent i-band Petrosian magnitude of a BCG at Z
	Ilim   float64 // limiting i magnitude for cluster members at Z
	Ug     float64 // expected u-g colour
	Gr     float64 // expected g-r colour
	Ri     float64 // expected r-i colour
	Iz     float64 // expected i-z colour
	Radius float64 // angular radius of 1 Mpc at Z, in degrees
}

// Kcorr is the full lookup table, ordered by increasing redshift.
type Kcorr struct {
	// Rows must not be mutated once queries begin: ChiBand and
	// MemberBoundsMonotone latch per-column monotonicity from the table
	// they first see, so a later mutation could silently misprune.
	Rows []KcorrRow

	// Latched once, on the first ChiBand or MemberBoundsMonotone call.
	// The ridge-line columns I, Gr, Ri are cached as plain slices when
	// nondecreasing in redshift (nil otherwise: a non-monotone column does
	// not narrow the band). The analytic model's are; hand-built tables
	// may not be.
	latchOnce      sync.Once
	iCol           []float64
	grCol          []float64
	riCol          []float64
	boundsMonotone bool
}

// Cosmological and population constants for the analytic model. The paper's
// own numbers imply h=1 distances (its example: r200 = 1.78 Mpc is 0.74° at
// z = 0.05); we match that convention.
const (
	hubbleDistanceMpc = 2998.0 // c/H0 with H0 = 100 km/s/Mpc
	bcgAbsoluteMagI   = -22.0  // characteristic BCG absolute magnitude
	memberDepthMag    = 2.0    // members counted down to i(z) + 2
)

// NewKcorr builds a k-correction table with the given number of redshift
// steps over (0, zMax]. The paper's TAM configuration used 100 steps of
// 0.01; the SQL configuration used 1000 steps of 0.001 (both spanning the
// same range), which is exactly what NewKcorr(steps, zMax) produces.
func NewKcorr(steps int, zMax float64) (*Kcorr, error) {
	if steps < 2 {
		return nil, fmt.Errorf("sky: k-correction table needs at least 2 steps, got %d", steps)
	}
	if zMax <= 0 || zMax > 1.5 {
		return nil, fmt.Errorf("sky: zMax %g outside (0, 1.5]", zMax)
	}
	k := &Kcorr{Rows: make([]KcorrRow, steps)}
	dz := zMax / float64(steps)
	for i := 0; i < steps; i++ {
		z := dz * float64(i+1)
		k.Rows[i] = kcorrAt(i+1, z)
	}
	return k, nil
}

// MustNewKcorr is NewKcorr that panics on error; for tests and examples.
func MustNewKcorr(steps int, zMax float64) *Kcorr {
	k, err := NewKcorr(steps, zMax)
	if err != nil {
		panic(err)
	}
	return k
}

// kcorrAt evaluates the analytic BCG model at redshift z.
func kcorrAt(zid int, z float64) KcorrRow {
	da := AngularDiameterDistanceMpc(z)
	dl := da * (1 + z) * (1 + z) // luminosity distance
	mu := 25 + 5*math.Log10(dl)  // distance modulus, dl in Mpc
	// Small k-correction term for an old stellar population in i.
	iMag := bcgAbsoluteMagI + mu + 1.6*z
	return KcorrRow{
		Zid:    zid,
		Z:      z,
		I:      iMag,
		Ilim:   iMag + memberDepthMag,
		Ug:     1.60 + 0.9*z,
		Gr:     redSequenceGr(z),
		Ri:     redSequenceRi(z),
		Iz:     0.20 + 0.5*z,
		Radius: math.Min(1.0/da*astro.Rad2Deg, 4.0),
	}
}

// redSequenceGr is the g-r colour of the BCG red sequence at redshift z.
// Early-type galaxy colours redden roughly linearly over 0 < z < 0.4.
func redSequenceGr(z float64) float64 { return 0.72 + 2.20*z }

// redSequenceRi is the r-i colour of the BCG red sequence at redshift z.
func redSequenceRi(z float64) float64 { return 0.30 + 0.90*z }

// AngularDiameterDistanceMpc returns an approximate angular-diameter
// distance in Mpc (h=1) valid for the z < 0.5 range MaxBCG searches:
// d_C = (c/H0)·z·(1 − 0.375·z), d_A = d_C/(1+z). At z = 0.05 this gives
// 1 Mpc ≈ 0.40°, consistent with the paper's worked example.
func AngularDiameterDistanceMpc(z float64) float64 {
	dc := hubbleDistanceMpc * z * (1 - 0.375*z)
	return dc / (1 + z)
}

// Lookup returns the row whose redshift is closest to z.
func (k *Kcorr) Lookup(z float64) KcorrRow {
	rows := k.Rows
	lo, hi := 0, len(rows)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid].Z < z {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && math.Abs(rows[lo-1].Z-z) < math.Abs(rows[lo].Z-z) {
		lo--
	}
	return rows[lo]
}

// LookupExact returns the row with |row.Z - z| < 1e-7, reproducing the
// paper's "WHERE ABS(z - @z) < 0.0000001" lookups, and reports whether one
// exists.
func (k *Kcorr) LookupExact(z float64) (KcorrRow, bool) {
	r := k.Lookup(z)
	if math.Abs(r.Z-z) < 1e-7 {
		return r, true
	}
	return KcorrRow{}, false
}

// ChiBand returns the half-open index range of rows whose ridge-line
// magnitude I lies in [iMin, iMax], colour Gr in [grMin, grMax], and
// colour Ri in [riMin, riMax]. A BCG's distance modulus and red-sequence
// colours all grow monotonically with redshift, so each χ² term's
// reachable rows form one contiguous band and binary searches bound the
// scan; the result is their intersection (possibly empty: hi == lo). A
// non-monotone column — possible in hand-built tables, and any column
// holding a NaN counts as one — contributes the full range, so the result
// is always a safe superset of the rows that can pass the filter.
func (k *Kcorr) ChiBand(iMin, iMax, grMin, grMax, riMin, riMax float64) (lo, hi int) {
	k.latchOnce.Do(k.latch)
	lo, hi = 0, len(k.Rows)
	lo, hi = narrowBand(k.iCol, iMin, iMax, lo, hi)
	lo, hi = narrowBand(k.grCol, grMin, grMax, lo, hi)
	return narrowBand(k.riCol, riMin, riMax, lo, hi)
}

// MemberBoundsMonotone reports whether Ilim, Gr and Ri are nondecreasing
// and Radius nonincreasing from row to row, with no NaN among them. Then
// every per-redshift bound of fBCGCandidate's neighbour count moves one
// way with redshift, and the rows at which one neighbour is counted form a
// single index interval. The analytic model's table has this property.
func (k *Kcorr) MemberBoundsMonotone() bool {
	k.latchOnce.Do(k.latch)
	return k.boundsMonotone
}

// latch checks each column's direction once and caches the monotone
// ridge-line columns for ChiBand.
func (k *Kcorr) latch() {
	n := len(k.Rows)
	i, gr, ri := make([]float64, n), make([]float64, n), make([]float64, n)
	ilim, negRadius := make([]float64, n), make([]float64, n)
	for j := range k.Rows {
		r := &k.Rows[j]
		i[j], gr[j], ri[j], ilim[j], negRadius[j] = r.I, r.Gr, r.Ri, r.Ilim, -r.Radius
	}
	k.boundsMonotone = nondecreasing(gr) && nondecreasing(ri) && nondecreasing(ilim) && nondecreasing(negRadius)
	k.iCol, k.grCol, k.riCol = ifNondecreasing(i), ifNondecreasing(gr), ifNondecreasing(ri)
}

// nondecreasing reports whether c is NaN-free and never decreases.
func nondecreasing(c []float64) bool {
	for j, v := range c {
		if v != v || (j > 0 && c[j-1] > v) {
			return false
		}
	}
	return true
}

func ifNondecreasing(c []float64) []float64 {
	if nondecreasing(c) {
		return c
	}
	return nil
}

// narrowBand intersects [lo, hi) with the index range of col's values in
// [min, max]; a nil col (a column that is not monotone) leaves it whole.
// Both searches run inside [lo, hi) only, so an empty band stays empty
// (hi == lo) without searching, and the result never has hi < lo.
func narrowBand(col []float64, min, max float64, lo, hi int) (int, int) {
	if col == nil || lo >= hi {
		return lo, hi
	}
	l, h := lo, hi
	for l < h { // first index from lo with col[i] >= min
		m := int(uint(l+h) >> 1)
		if col[m] >= min {
			h = m
		} else {
			l = m + 1
		}
	}
	lo, h = l, hi
	for l < h { // first index from the new lo with col[i] > max
		m := int(uint(l+h) >> 1)
		if col[m] > max {
			h = m
		} else {
			l = m + 1
		}
	}
	return lo, l
}

// Steps returns the number of redshift rows.
func (k *Kcorr) Steps() int { return len(k.Rows) }

// ZMax returns the largest tabulated redshift.
func (k *Kcorr) ZMax() float64 { return k.Rows[len(k.Rows)-1].Z }

// R200Mpc returns the r200 radius in Mpc for a cluster of ngal galaxies:
// 0.17 · ngal^0.51, the paper's fBCGr200. The mean density inside r200 is
// 200 times the mean galaxy density of the sky.
func R200Mpc(ngal float64) float64 {
	if ngal <= 0 {
		return 0
	}
	return 0.17 * math.Pow(ngal, 0.51)
}
