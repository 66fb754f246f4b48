package maxbcg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
)

// loopCounts is the oracle for countNeighbors: fBCGCandidate's @counts as
// the paper writes it, every friend tested against every redshift row.
// It stays here, independent of the production fallback, because the
// benchmark's oracle (the in-memory Finder) shares finishCandidate and so
// cannot see a counting bug.
func loopCounts(p Params, g *sky.Galaxy, kcorr *sky.Kcorr, rows []chiRow, friends []friend) []int {
	counts := make([]int, len(rows))
	for ri := range rows {
		k := &kcorr.Rows[rows[ri].zid-1]
		for fi := range friends {
			f := &friends[fi]
			if f.Distance < k.Radius &&
				f.I >= g.I && f.I <= k.Ilim &&
				f.Gr >= k.Gr-p.GrPopSigma && f.Gr <= k.Gr+p.GrPopSigma &&
				f.Ri >= k.Ri-p.RiPopSigma && f.Ri <= k.Ri+p.RiPopSigma {
				counts[ri]++
			}
		}
	}
	return counts
}

// requireCounts runs countNeighbors on a copy of rows and fails on the
// first row whose count differs from the oracle's. It returns the number
// of rows compared.
func requireCounts(t *testing.T, p Params, g *sky.Galaxy, kcorr *sky.Kcorr, rows []chiRow, friends []friend) int {
	t.Helper()
	want := loopCounts(p, g, kcorr, rows, friends)
	got := append([]chiRow(nil), rows...)
	countNeighbors(p, g, kcorr, got, friends)
	for ri := range got {
		if got[ri].ngal != want[ri] {
			t.Fatalf("galaxy %d, zid %d: %d neighbours, loop counts %d (monotone table: %v, %d friends)",
				g.ObjID, got[ri].zid, got[ri].ngal, want[ri], kcorr.MemberBoundsMonotone(), len(friends))
		}
	}
	return len(got)
}

// TestCandidateCountMatchesLoop pins the interval count to the loop on
// every (probe, redshift) row of the Table 1 run: the benchmark catalog,
// its buffered target area, the χ² survivors and the friends the
// @friends window delivers, exactly as fBCGCandidate sees them.
func TestCandidateCountMatchesLoop(t *testing.T) {
	cat, err := sky.Generate(sky.GenConfig{Region: astro.MustBox(193.9, 196.4, 1.2, 3.8), Seed: 20040801})
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Kcorr.MemberBoundsMonotone() {
		t.Fatal("the analytic k-correction table is not monotone: the interval count never runs")
	}
	p := DefaultParams()
	f, err := NewFinder(cat, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	area := astro.MustBox(194.9, 195.4, 1.9, 3.1).Expand(p.BufferDeg)
	s := f.Searcher()
	var probes, compared int
	var friends []friend
	for i := range cat.Galaxies {
		g := &cat.Galaxies[i]
		if !area.Contains(g.Ra, g.Dec) {
			continue
		}
		rows := chiSquareTable(p, g, cat.Kcorr, nil)
		if len(rows) == 0 {
			continue
		}
		win, rad := friendWindow(p, g, cat.Kcorr, rows)
		friends = friends[:0]
		if err := s.Search(g.Ra, g.Dec, rad, func(n Neighbor) {
			if win.Contains(n.ObjID, n.I, n.Gr, n.Ri) {
				friends = append(friends, friend{n.Distance, n.I, n.Gr, n.Ri})
			}
		}); err != nil {
			t.Fatal(err)
		}
		probes++
		compared += requireCounts(t, p, g, cat.Kcorr, rows, friends)
	}
	t.Logf("%d probes, %d (probe, redshift) rows match the loop", probes, compared)
	if compared == 0 {
		t.Fatal("no rows compared")
	}
}

// FuzzCandidateCount holds countNeighbors to the loop on inputs nobody
// hand-wrote: random k-correction tables (monotone ones take the interval
// count; a column bent out of order, or holding a NaN, must take the
// fallback), random χ² row subsets, and friends placed exactly on band
// edges, with a NaN in any friend field now and then — such a friend must
// count for no redshift, as the loop's conjunction counts it.
func FuzzCandidateCount(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, bend uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultParams()
		if rng.Intn(3) == 0 {
			p.GrPopSigma = rng.Float64() * 0.2
			p.RiPopSigma = rng.Float64() * 0.2
		}
		n := 1 + rng.Intn(60)
		kcorr := &sky.Kcorr{Rows: make([]sky.KcorrRow, n)}
		// Steps of zero make ties; the table starts from random values.
		step := func() float64 { return float64(rng.Intn(3)) * rng.Float64() * 0.05 }
		ilim, gr, ri, radius := 17+rng.Float64()*3, rng.Float64(), rng.Float64(), 0.2+rng.Float64()
		for i := range kcorr.Rows {
			kcorr.Rows[i] = sky.KcorrRow{Zid: i + 1, Z: float64(i+1) / float64(n), Ilim: ilim, Gr: gr, Ri: ri, Radius: radius}
			ilim, gr, ri, radius = ilim+step(), gr+step(), ri+step(), radius-step()
		}
		// bend's low bits pick a column to break; the rest where.
		if bend%4 == 0 && n > 1 {
			r := &kcorr.Rows[int(bend>>2)%n]
			switch bend >> 6 {
			case 0:
				r.Ilim -= 0.5
			case 1:
				r.Gr += math.NaN()
			case 2:
				r.Ri -= 0.5
			default:
				r.Radius += 0.5
			}
		}
		g := &sky.Galaxy{ObjID: 1, I: ilim - 2 + rng.Float64()*2}
		var rows []chiRow
		for i := range kcorr.Rows {
			if rng.Intn(4) != 0 {
				rows = append(rows, chiRow{zid: i + 1, chisq: rng.Float64() * 7})
			}
		}
		// Each friend takes every field from a random row's band edge,
		// from just inside or outside it, or at random.
		edge := func(v float64) float64 {
			switch rng.Intn(4) {
			case 0:
				return v
			case 1:
				return math.Nextafter(v, math.Inf(1))
			case 2:
				return math.Nextafter(v, math.Inf(-1))
			}
			return v + (rng.Float64()-0.5)*0.2
		}
		friends := make([]friend, rng.Intn(40))
		for fi := range friends {
			k := &kcorr.Rows[rng.Intn(n)]
			sign := []float64{-1, 1}[rng.Intn(2)]
			friends[fi] = friend{
				Distance: edge(k.Radius),
				I:        []float64{edge(k.Ilim), edge(g.I)}[rng.Intn(2)],
				Gr:       edge(k.Gr + sign*p.GrPopSigma),
				Ri:       edge(k.Ri + sign*p.RiPopSigma),
			}
			if rng.Intn(8) == 0 {
				fields := []*float64{&friends[fi].Distance, &friends[fi].I, &friends[fi].Gr, &friends[fi].Ri}
				*fields[rng.Intn(len(fields))] = math.NaN()
			}
		}
		requireCounts(t, p, g, kcorr, rows, friends)
	})
}
