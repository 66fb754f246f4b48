package maxbcg

import (
	"fmt"
	"sort"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/zone"
)

// Finder is the in-memory implementation of the SQL MaxBCG design: the
// catalog is zone-indexed once (spZone), candidates are computed over the
// buffered area B = T + 0.5° (spMakeCandidates), cluster centres are picked
// inside T (spMakeClusters), and members are retrieved per cluster
// (spMakeGalaxiesMetric). It is the "compiled stored procedure" variant:
// identical logic to DBFinder, no page I/O.
type Finder struct {
	Params Params
	Kcorr  *sky.Kcorr

	region   astro.Box
	galaxies []sky.Galaxy
	byID     map[int64]int
	idx      *zone.Index
}

// NewFinder zone-indexes the catalog. zoneHeightDeg 0 selects the paper's
// 30 arcseconds.
func NewFinder(cat *sky.Catalog, p Params, zoneHeightDeg float64) (*Finder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cat.Kcorr == nil {
		return nil, fmt.Errorf("maxbcg: catalog has no k-correction table")
	}
	if zoneHeightDeg == 0 {
		zoneHeightDeg = astro.ZoneHeightDeg
	}
	idx, err := zone.Build(cat.Galaxies, zoneHeightDeg)
	if err != nil {
		return nil, err
	}
	f := &Finder{
		Params: p, Kcorr: cat.Kcorr,
		region: cat.Region, galaxies: cat.Galaxies,
		byID: make(map[int64]int, len(cat.Galaxies)),
		idx:  idx,
	}
	for i := range cat.Galaxies {
		f.byID[cat.Galaxies[i].ObjID] = i
	}
	return f, nil
}

// Searcher returns the finder's zone-index-backed galaxy searcher.
func (f *Finder) Searcher() Searcher { return finderSearcher{f} }

type finderSearcher struct{ f *Finder }

// Search implements Searcher over the zone index, attaching photometry.
func (s finderSearcher) Search(raDeg, decDeg, rDeg float64, visit func(Neighbor)) error {
	s.f.idx.Visit(raDeg, decDeg, rDeg, func(n zone.Neighbor) {
		g := &s.f.galaxies[s.f.byID[n.Entry.ObjID]]
		visit(Neighbor{
			ObjID: g.ObjID, Ra: g.Ra, Dec: g.Dec,
			Distance: n.Distance,
			I:        g.I, Gr: g.Gr, Ri: g.Ri,
		})
	})
	return nil
}

// CandidateSet answers radial queries over a candidate list using a
// dec-sorted array: the band [dec−r, dec+r] is binary-searched and each row
// distance-checked, a small-scale analogue of the Candidates-table search.
// All in-memory implementations (Finder, the TAM pipeline) share it.
type CandidateSet struct {
	byDec []Candidate // sorted by (dec, objID)
}

// NewCandidateSet builds the dec-sorted search structure.
func NewCandidateSet(cands []Candidate) *CandidateSet {
	s := &CandidateSet{byDec: append([]Candidate(nil), cands...)}
	sort.Slice(s.byDec, func(a, b int) bool {
		if s.byDec[a].Dec != s.byDec[b].Dec {
			return s.byDec[a].Dec < s.byDec[b].Dec
		}
		return s.byDec[a].ObjID < s.byDec[b].ObjID
	})
	return s
}

// SearchCandidates implements CandidateSearcher.
func (s *CandidateSet) SearchCandidates(raDeg, decDeg, rDeg float64, visit func(Candidate)) error {
	lo := sort.Search(len(s.byDec), func(i int) bool { return s.byDec[i].Dec >= decDeg-rDeg })
	r2 := astro.Chord2FromAngle(rDeg)
	center := astro.UnitVector(raDeg, decDeg)
	for i := lo; i < len(s.byDec) && s.byDec[i].Dec <= decDeg+rDeg; i++ {
		c := &s.byDec[i]
		if center.Chord2(astro.UnitVector(c.Ra, c.Dec)) < r2 {
			visit(*c)
		}
	}
	return nil
}

// FindCandidates computes the Candidates table for every galaxy inside
// area (the paper's spMakeCandidates cursor loop). Results are ordered by
// ObjID so all implementations agree bytewise.
func (f *Finder) FindCandidates(area astro.Box) ([]Candidate, error) {
	var out []Candidate
	s := f.Searcher()
	for i := range f.galaxies {
		g := &f.galaxies[i]
		if !area.Contains(g.Ra, g.Dec) {
			continue
		}
		c, ok, err := BCGCandidate(f.Params, g, f.Kcorr, s)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, c)
		}
	}
	sortCandidates(out)
	return out, nil
}

// Run executes the full pipeline for a target box T:
//
//	B := T expanded by the buffer (clipped to the catalog)
//	candidates over B, clusters for candidates inside T, members per cluster
//
// The catalog should extend at least 2× the buffer beyond T (the paper's
// import region P) so border candidates see their full neighbourhoods.
func (f *Finder) Run(target astro.Box) (*Result, error) {
	area := target.Expand(f.Params.BufferDeg)
	if clipped, ok := area.Intersect(f.region); ok {
		area = clipped
	}
	cands, err := f.FindCandidates(area)
	if err != nil {
		return nil, err
	}
	cset := NewCandidateSet(cands)
	res := &Result{Candidates: cands}
	for _, c := range cands {
		if !target.Contains(c.Ra, c.Dec) {
			continue
		}
		isC, err := IsCluster(f.Params, c, f.Kcorr, cset)
		if err != nil {
			return nil, err
		}
		if !isC {
			continue
		}
		res.Clusters = append(res.Clusters, c)
		members, err := ClusterMembers(f.Params, c, f.Kcorr, f.Searcher())
		if err != nil {
			return nil, err
		}
		res.Members = append(res.Members, members...)
	}
	sortMembers(res.Members)
	return res, nil
}
