package sky

import (
	"math"

	"repro/internal/astro"
)

// Galaxy is one row of the Galaxy table: the 5-space MaxBCG works in
// (ra, dec, g-r, r-i, i) plus the colour errors derived from i. It mirrors
// the paper's Galaxy schema (one row per SDSS galaxy, extracted from
// PhotoObjAll by spImportGalaxy).
type Galaxy struct {
	ObjID   int64   // unique object identifier
	Ra      float64 // right ascension, degrees
	Dec     float64 // declination, degrees
	I       float64 // i-band magnitude (dereddened)
	Gr      float64 // g-r colour
	Ri      float64 // r-i colour
	SigmaGr float64 // standard error of g-r
	SigmaRi float64 // standard error of r-i
}

// SigmaGrFor returns the paper's photometric error model for g-r:
// 2.089 · 10^(0.228·i − 6).
func SigmaGrFor(iMag float64) float64 {
	return 2.089 * math.Pow(10, 0.228*iMag-6.0)
}

// SigmaRiFor returns the paper's photometric error model for r-i:
// 4.266 · 10^(0.206·i − 6).
func SigmaRiFor(iMag float64) float64 {
	return 4.266 * math.Pow(10, 0.206*iMag-6.0)
}

// TrueCluster records an injected cluster, the generator's ground truth.
// The reproduction's validation tests recover these with MaxBCG.
type TrueCluster struct {
	BCGObjID  int64   // object id of the injected brightest cluster galaxy
	Ra, Dec   float64 // cluster centre (the BCG position)
	Z         float64 // true redshift
	NGal      int     // number of injected member galaxies (excluding the BCG)
	RadiusDeg float64 // angular radius members were placed within
}

// Catalog is a generated piece of sky: the galaxy rows, the k-correction
// table they were drawn against, the region they cover, and the injected
// ground truth.
type Catalog struct {
	Region   astro.Box
	Galaxies []Galaxy
	Kcorr    *Kcorr
	Truth    []TrueCluster
	Seed     int64
}

// Len returns the number of galaxies.
func (c *Catalog) Len() int { return len(c.Galaxies) }

// DensityPerDeg2 returns the realised surface density.
func (c *Catalog) DensityPerDeg2() float64 {
	a := c.Region.FlatArea()
	if a == 0 {
		return 0
	}
	return float64(len(c.Galaxies)) / a
}

// Select returns the galaxies inside box, preserving catalog order. It is
// the in-memory equivalent of the paper's
// "SELECT ... FROM Galaxy WHERE ra BETWEEN ... AND dec BETWEEN ...".
func (c *Catalog) Select(box astro.Box) []Galaxy {
	var out []Galaxy
	for _, g := range c.Galaxies {
		if box.Contains(g.Ra, g.Dec) {
			out = append(out, g)
		}
	}
	return out
}
