// Package maxbcg implements the paper's primary subject: the
// Maximum-likelihood Brightest Cluster Galaxy algorithm (Annis et al.) that
// finds galaxy clusters in a 5-space of two positions (ra, dec), two
// colours (g-r, r-i) and one brightness (i).
//
// The algorithm's six steps (paper §2.1) map onto this package as:
//
//	Get galaxy list                → the caller selects the region (Finder)
//	Filter                        → chiSquareTable (χ² against Kcorr, cut 7)
//	Check neighbors               → countNeighbors (per-redshift windows)
//	Pick most likely              → IsCluster (max weighted likelihood)
//	Discard compromised results   → Run (clusters clipped to the target)
//	Retrieve members              → ClusterMembers (1 Mpc ∧ r200 windows)
//
// The per-galaxy functions are written against a Searcher interface so the
// identical logic runs over the in-memory zone index, the sqldb-backed zone
// table (I/O-accounted, for the paper's Table 1), and the TAM file
// pipeline's RAM buffers (the baseline).
package maxbcg

import (
	"fmt"
	"math"

	"repro/internal/sky"
	"repro/internal/zone"
)

// Params holds the algorithm constants. The values of DefaultParams are the
// paper's: population sigmas 0.05 (g-r), 0.06 (r-i), 0.57 (i), χ² cutoff 7,
// 0.5° buffer, and the fIsCluster redshift pairing window ±0.05.
type Params struct {
	GrPopSigma float64 // population dispersion of BCG g-r colours
	RiPopSigma float64 // population dispersion of BCG r-i colours
	IPopSigma  float64 // population dispersion of BCG i magnitudes
	Chi2Cutoff float64 // unweighted-likelihood acceptance threshold
	BufferDeg  float64 // buffer width around the target area (paper: 0.5)
	ZWindow    float64 // redshift window when comparing candidates (±0.05)
}

// DefaultParams returns the paper's constants.
func DefaultParams() Params {
	return Params{
		GrPopSigma: 0.05,
		RiPopSigma: 0.06,
		IPopSigma:  0.57,
		Chi2Cutoff: 7,
		BufferDeg:  0.5,
		ZWindow:    0.05,
	}
}

// Validate reports obviously broken parameter values.
func (p Params) Validate() error {
	if p.GrPopSigma <= 0 || p.RiPopSigma <= 0 || p.IPopSigma <= 0 {
		return fmt.Errorf("maxbcg: population sigmas must be positive")
	}
	if p.Chi2Cutoff <= 0 {
		return fmt.Errorf("maxbcg: chi-squared cutoff must be positive")
	}
	if p.BufferDeg < 0 || p.BufferDeg > 5 {
		return fmt.Errorf("maxbcg: buffer %g degrees outside [0, 5]", p.BufferDeg)
	}
	if p.ZWindow <= 0 {
		return fmt.Errorf("maxbcg: redshift window must be positive")
	}
	return nil
}

// Neighbor is one galaxy delivered by a Searcher: photometry plus the
// distance from the search centre in degrees.
type Neighbor struct {
	ObjID     int64
	Ra, Dec   float64
	Distance  float64
	I, Gr, Ri float64
}

// friend is a neighbour as fBCGCandidate's per-redshift count reads it:
// its distance from the probe in degrees and its photometry.
type friend struct{ Distance, I, Gr, Ri float64 }

// Searcher finds all galaxies within r degrees of a position. The three
// implementations are the in-memory zone index, the DB zone table, and the
// TAM buffer file scan.
type Searcher interface {
	Search(raDeg, decDeg, rDeg float64, visit func(Neighbor)) error
}

// Candidate is one row of the Candidates table: a galaxy that is likely to
// be a BCG at its best-fitting redshift.
type Candidate struct {
	ObjID   int64
	Ra, Dec float64
	Z       float64 // redshift of the maximum weighted likelihood
	I       float64 // i-band magnitude
	NGal    int     // galaxies in the cluster (neighbours + the BCG)
	Chi2    float64 // weighted likelihood log(ngal+1) − χ²
}

// Member is one row of the ClusterGalaxiesMetric table.
type Member struct {
	ClusterObjID int64
	GalaxyObjID  int64
	Distance     float64
}

// chiRow is one surviving row of the per-galaxy @chisquare table.
type chiRow struct {
	zid   int
	chisq float64
	ngal  int
}

// chiSquareTable reproduces the Filter step: the galaxy is cross-joined
// with the k-correction table and rows with
//
//	(i−k.i)²/0.57² + (gr−k.gr)²/(σgr²+0.05²) + (ri−k.ri)²/(σri²+0.06²) < 7
//
// survive. The returned rows are ordered by zid. This early filter is the
// first thing the paper credits for the SQL implementation's speed.
func chiSquareTable(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, out []chiRow) []chiRow {
	out = out[:0]
	iVar := p.IPopSigma * p.IPopSigma
	grVar := g.SigmaGr*g.SigmaGr + p.GrPopSigma*p.GrPopSigma
	riVar := g.SigmaRi*g.SigmaRi + p.RiPopSigma*p.RiPopSigma
	// Each χ² term alone bounds the reachable redshifts: χ² ≥
	// (i−k.i)²/σᵢ², so only rows with |i−k.i| < √cutoff·σᵢ can pass, and
	// likewise for the two colour terms. The ridge lines I(z), Gr(z),
	// Ri(z) are monotone in z, so binary searches replace the full-table
	// scan (ChiBand degrades to the full range for non-monotone columns).
	sc := math.Sqrt(p.Chi2Cutoff)
	dI := sc * p.IPopSigma
	dGr := sc * math.Sqrt(grVar)
	dRi := sc * math.Sqrt(riVar)
	lo, hi := kcorr.ChiBand(g.I-dI, g.I+dI, g.Gr-dGr, g.Gr+dGr, g.Ri-dRi, g.Ri+dRi)
	for k := lo; k < hi; k++ {
		row := &kcorr.Rows[k]
		di := g.I - row.I
		dgr := g.Gr - row.Gr
		dri := g.Ri - row.Ri
		chisq := di*di/iVar + dgr*dgr/grVar + dri*dri/riVar
		if chisq < p.Chi2Cutoff {
			out = append(out, chiRow{zid: row.Zid, chisq: chisq})
		}
	}
	return out
}

// friendWindow aggregates the Check-neighbors bounds over the surviving
// redshifts, as fBCGCandidate computes them. It returns the @friends cut —
// not the galaxy itself, no brighter than it, no fainter than the faintest
// member limit, colours inside the ridge bands widened by two population
// sigmas — and the search radius, the largest angular 1 Mpc radius. The
// in-memory Finder applies the cut after delivery; DBFinder pushes it
// down into the sweep (zone.SweepOptions.Windows).
func friendWindow(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, rows []chiRow) (zone.Window, float64) {
	rad := -math.MaxFloat64
	w := zone.Window{
		ExcludeID: g.ObjID,
		IMin:      g.I, IMax: -math.MaxFloat64,
		GrMin: math.MaxFloat64, GrMax: -math.MaxFloat64,
		RiMin: math.MaxFloat64, RiMax: -math.MaxFloat64,
	}
	for _, r := range rows {
		k := &kcorr.Rows[r.zid-1]
		rad = math.Max(rad, k.Radius)
		w.IMax = math.Max(w.IMax, k.Ilim)
		w.GrMin = math.Min(w.GrMin, k.Gr-2*p.GrPopSigma)
		w.GrMax = math.Max(w.GrMax, k.Gr+2*p.GrPopSigma)
		w.RiMin = math.Min(w.RiMin, k.Ri-2*p.RiPopSigma)
		w.RiMax = math.Max(w.RiMax, k.Ri+2*p.RiPopSigma)
	}
	return w, rad
}

// finishCandidate runs the tail of fBCGCandidate over the buffered friends:
// the per-redshift neighbour count (the paper's @counts) and the weighted
// likelihood maximisation. Both search paths funnel through it, so a
// candidate's values depend only on the friend set, not on how the
// neighbour search delivered it.
func finishCandidate(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, rows []chiRow, friends []friend) (Candidate, bool) {
	countNeighbors(p, g, kcorr, rows, friends)

	// Weight the likelihood and take the maximum over redshifts with at
	// least one neighbour: chi = max(log(ngal+1) − χ²).
	best := math.Inf(-1)
	bestIdx := -1
	for ri := range rows {
		if rows[ri].ngal == 0 {
			continue
		}
		l := math.Log(float64(rows[ri].ngal+1)) - rows[ri].chisq
		if l > best {
			best = l
			bestIdx = ri
		}
	}
	if bestIdx < 0 {
		return Candidate{}, false
	}
	k := &kcorr.Rows[rows[bestIdx].zid-1]
	return Candidate{
		ObjID: g.ObjID, Ra: g.Ra, Dec: g.Dec,
		Z: k.Z, I: g.I,
		NGal: rows[bestIdx].ngal + 1,
		Chi2: best,
	}, true
}

// countNeighbors sets rows[].ngal to the number of friends inside each
// redshift's 1 Mpc radius, magnitude range and one-sigma colour bands (the
// paper's @counts): by interval when the table's bounds are monotone in
// redshift, which the analytic model's are, by the full loop otherwise.
func countNeighbors(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, rows []chiRow, friends []friend) {
	if kcorr.MemberBoundsMonotone() {
		countByInterval(p, g, kcorr, rows, friends)
	} else {
		countByLoop(p, g, kcorr, rows, friends)
	}
}

// countByLoop is countNeighbors testing every friend against every row:
// the paper's @counts as written, kept for tables whose bounds are not
// monotone in redshift.
func countByLoop(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, rows []chiRow, friends []friend) {
	for ri := range rows {
		k := &kcorr.Rows[rows[ri].zid-1]
		n := 0
		for fi := range friends {
			f := &friends[fi]
			if f.Distance < k.Radius &&
				f.I >= g.I && f.I <= k.Ilim &&
				f.Gr >= k.Gr-p.GrPopSigma && f.Gr <= k.Gr+p.GrPopSigma &&
				f.Ri >= k.Ri-p.RiPopSigma && f.Ri <= k.Ri+p.RiPopSigma {
				n++
			}
		}
		rows[ri].ngal = n
	}
}

// countByInterval computes countByLoop's counts for a table whose bounds
// are monotone in redshift (sky.Kcorr.MemberBoundsMonotone). rows ascend
// in zid, and along them Ilim, Gr and Ri rise and Radius falls (adding or
// subtracting σ keeps a column's order: float rounding is monotone), so
// each of the loop's conditions on a friend holds on a suffix of the rows
// (f.I ≤ Ilim, f.Gr ≤ Gr+σ, f.Ri ≤ Ri+σ) or on a prefix (f.Distance <
// Radius, f.Gr ≥ Gr−σ, f.Ri ≥ Ri−σ), and the rows counting the friend
// form one interval [start, end). Two binary searches find it and a
// difference array in rows[].ngal sums the intervals: O(friends·log rows
// + rows) instead of friends × rows. The comparisons are the loop's own
// expressions, so the counts are exactly the loop's; a NaN friend field
// fails every search predicate it appears in, leaving an empty interval,
// just as it fails the loop's conjunction.
func countByInterval(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, rows []chiRow, friends []friend) {
	for ri := range rows {
		rows[ri].ngal = 0
	}
	n := len(rows)
	for fi := range friends {
		f := &friends[fi]
		if !(f.I >= g.I) {
			continue
		}
		lo, hi := 0, n
		for lo < hi { // start: the first row where every suffix condition holds
			m := int(uint(lo+hi) >> 1)
			k := &kcorr.Rows[rows[m].zid-1]
			if f.I <= k.Ilim && f.Gr <= k.Gr+p.GrPopSigma && f.Ri <= k.Ri+p.RiPopSigma {
				hi = m
			} else {
				lo = m + 1
			}
		}
		start := lo
		hi = n
		for lo < hi { // end: the first row from start on where a prefix condition fails
			m := int(uint(lo+hi) >> 1)
			k := &kcorr.Rows[rows[m].zid-1]
			if f.Distance < k.Radius && f.Gr >= k.Gr-p.GrPopSigma && f.Ri >= k.Ri-p.RiPopSigma {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if start < lo {
			rows[start].ngal++
			if lo < n {
				rows[lo].ngal--
			}
		}
	}
	run := 0
	for ri := range rows {
		run += rows[ri].ngal
		rows[ri].ngal = run
	}
}

// BCGCandidate reproduces fBCGCandidate for one galaxy: the χ² filter, the
// windowed neighbour count per redshift, and the weighted-likelihood
// maximisation. It returns (candidate, true) when the galaxy is a BCG
// candidate at some redshift with at least one neighbour.
func BCGCandidate(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, s Searcher) (Candidate, bool, error) {
	var scratch [64]chiRow
	rows := chiSquareTable(p, g, kcorr, scratch[:0])
	if len(rows) == 0 {
		return Candidate{}, false, nil
	}
	win, rad := friendWindow(p, g, kcorr, rows)

	// Collect friends: neighbours within the widest windows. The
	// per-redshift re-filter needs every friend for every row, so they are
	// buffered (the paper's @friends table variable).
	var friends []friend
	err := s.Search(g.Ra, g.Dec, rad, func(n Neighbor) {
		if win.Contains(n.ObjID, n.I, n.Gr, n.Ri) {
			friends = append(friends, friend{n.Distance, n.I, n.Gr, n.Ri})
		}
	})
	if err != nil {
		return Candidate{}, false, err
	}
	c, ok := finishCandidate(p, g, kcorr, rows, friends)
	return c, ok, nil
}

// CandidateSearcher finds candidate BCGs near a position; implementations
// search the Candidates table / slice.
type CandidateSearcher interface {
	SearchCandidates(raDeg, decDeg, rDeg float64, visit func(Candidate)) error
}

// IsCluster reproduces fIsCluster: the candidate is a cluster centre iff no
// candidate within the 1 Mpc angular radius at its redshift (and within
// ±ZWindow in redshift) has a larger weighted likelihood. Ties resolve as
// the paper's |Δ| < 1e-5 equality check does: both centres survive.
func IsCluster(p Params, c Candidate, kcorr *sky.Kcorr, cs CandidateSearcher) (bool, error) {
	t, r, err := newCentreTest(p, &c, kcorr)
	if err != nil {
		return false, err
	}
	err = cs.SearchCandidates(c.Ra, c.Dec, r, func(o Candidate) { t.see(o.Z, o.Chi2) })
	if err != nil {
		return false, err
	}
	return t.centre(), nil
}

// centreTest is fIsCluster's verdict on one candidate, shared by IsCluster
// and DBFinder.MakeClusters: the largest likelihood among the candidates
// found within the radius and ±ZWindow of the candidate's redshift.
type centreTest struct {
	zLo, zHi float64 // the redshift window
	chi2     float64 // the candidate's own likelihood
	best     float64
}

// newCentreTest starts c's test and returns its search radius, 1 Mpc at
// c's redshift, in degrees.
func newCentreTest(p Params, c *Candidate, kcorr *sky.Kcorr) (centreTest, float64, error) {
	k, ok := kcorr.LookupExact(c.Z)
	if !ok {
		return centreTest{}, 0, fmt.Errorf("maxbcg: candidate %d has untabulated redshift %g", c.ObjID, c.Z)
	}
	return centreTest{zLo: c.Z - p.ZWindow, zHi: c.Z + p.ZWindow, chi2: c.Chi2, best: math.Inf(-1)}, k.Radius, nil
}

// see folds in one candidate found within the radius (c itself included).
func (t *centreTest) see(z, chi2 float64) {
	if z < t.zLo || z > t.zHi {
		return
	}
	if chi2 > t.best {
		t.best = chi2
	}
}

// centre reports whether the candidate is the most likely centre, ties
// within 1e-5 included.
func (t *centreTest) centre() bool { return math.Abs(t.best-t.chi2) < 1e-5 }

// ClusterMembers reproduces fGetClusterGalaxiesMetric: the cluster's
// galaxies are those inside radius(z)·r200(ngal) degrees whose magnitude
// lies in (BCG.i − 0.001, ilim(z)] and whose colours sit within one
// population sigma of the red sequence at z. The centre itself is the first
// member at distance zero.
func ClusterMembers(p Params, c Candidate, kcorr *sky.Kcorr, s Searcher) ([]Member, error) {
	k, ok := kcorr.LookupExact(c.Z)
	if !ok {
		return nil, fmt.Errorf("maxbcg: cluster %d has untabulated redshift %g", c.ObjID, c.Z)
	}
	rad := k.Radius * sky.R200Mpc(float64(c.NGal))
	members := []Member{{ClusterObjID: c.ObjID, GalaxyObjID: c.ObjID, Distance: 0}}
	win := memberWindow(p, &c, &k)
	err := s.Search(c.Ra, c.Dec, rad, func(n Neighbor) {
		if n.Distance >= rad || !win.Contains(n.ObjID, n.I, n.Gr, n.Ri) {
			return
		}
		members = append(members, Member{ClusterObjID: c.ObjID, GalaxyObjID: n.ObjID, Distance: n.Distance})
	})
	return members, err
}

// memberWindow is fGetClusterGalaxiesMetric's identity, magnitude and
// colour cut for cluster c at k-correction row k — everything but the
// r200 distance cut. Shared by the per-cluster path and the batched one,
// which pushes it down into the sweep (zone.SweepOptions.Windows).
func memberWindow(p Params, c *Candidate, k *sky.KcorrRow) zone.Window {
	return zone.Window{
		ExcludeID: c.ObjID,
		IMin:      c.I - 0.001, IMax: k.Ilim,
		GrMin: k.Gr - p.GrPopSigma, GrMax: k.Gr + p.GrPopSigma,
		RiMin: k.Ri - p.RiPopSigma, RiMax: k.Ri + p.RiPopSigma,
	}
}

// Result bundles the three output tables of one MaxBCG run.
type Result struct {
	Candidates []Candidate // the Candidates table (buffer area B)
	Clusters   []Candidate // the Clusters table (target area T)
	Members    []Member    // the ClusterGalaxiesMetric table
}

// Summary returns counts for quick reporting.
func (r *Result) Summary() string {
	return fmt.Sprintf("%d candidates, %d clusters, %d member rows",
		len(r.Candidates), len(r.Clusters), len(r.Members))
}
