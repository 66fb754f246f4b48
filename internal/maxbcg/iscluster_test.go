package maxbcg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

// FuzzIsClusterSweep drives DBFinder's fIsCluster — one zone.Sweep over
// the column-primary CandZone — with candidate sets nobody hand-wrote,
// against per-candidate IsCluster over the in-memory CandidateSet, whose
// dec-band search shares no zone code. The candidates crowd the places
// where the zone cover is easiest to get wrong: within a degree of either
// pole (decs of exactly ±90 among them), across the RA 0/360 seam, and on
// ras of ±0. Their redshifts sit on, and one ulp either side of, the
// ±ZWindow edges of each other's, and their likelihoods tie within the
// 1e-5 keep rule or just outside it. The swept cluster set must equal the
// oracle's, row for row.
func FuzzIsClusterSweep(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*29))
	}
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultParams()
		height := []float64{astro.ZoneHeightDeg, 0.05, 0.2, 1}[knobs%4]

		// Redshift rows one ZWindow (or half of one) apart, so a
		// candidate's window edge lands on another row's redshift.
		kcorr := &sky.Kcorr{Rows: make([]sky.KcorrRow, 2+rng.Intn(6))}
		step := []float64{p.ZWindow, p.ZWindow / 2, 0.01 + rng.Float64()*0.1}[rng.Intn(3)]
		for i := range kcorr.Rows {
			kcorr.Rows[i] = sky.KcorrRow{Zid: i + 1, Z: 0.05 + float64(i)*step, Radius: 0.02 + rng.Float64()*1.5}
		}
		redshift := func() float64 {
			z := kcorr.Rows[rng.Intn(len(kcorr.Rows))].Z
			switch rng.Intn(4) { // LookupExact still finds the row
			case 0:
				return math.Nextafter(z, 1)
			case 1:
				return math.Nextafter(z, 0)
			}
			return z
		}

		var chi2s []float64 // earlier likelihoods, to tie against
		likelihood := func() float64 {
			if len(chi2s) == 0 || rng.Intn(3) == 0 {
				c := rng.Float64() * 10
				chi2s = append(chi2s, c)
				return c
			}
			c := chi2s[rng.Intn(len(chi2s))]
			return c + []float64{0, 1e-5, -1e-5, 0.5e-5, math.Nextafter(1e-5, 0), 2e-5}[rng.Intn(6)]
		}
		seamRa := func() float64 {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return math.Nextafter(360, 0)
			case 3:
				return rng.Float64() * 0.5
			}
			return 360 - rng.Float64()*0.5
		}
		// Each candidate lands in one of a few crowded spots, so
		// neighbourhoods overlap and the z window and keep rule decide.
		spots := []func() (float64, float64){
			func() (float64, float64) { return rng.Float64() * 360, 90 - rng.Float64()*rng.Float64() },
			func() (float64, float64) { return rng.Float64() * 360, -90 + rng.Float64()*rng.Float64() },
			func() (float64, float64) { return seamRa(), 89.5 + rng.Float64()*0.5 },
			func() (float64, float64) { return seamRa(), (rng.Float64() - 0.5) * 2 },
			func() (float64, float64) { return 120 + rng.Float64()*0.5, 40 + rng.Float64()*0.5 },
		}
		cands := make([]Candidate, 1+rng.Intn(150))
		for i := range cands {
			c := &cands[i]
			c.ObjID = int64(i+1) * 3 // objid order, as Candidates scans
			c.Ra, c.Dec = spots[rng.Intn(len(spots))]()
			switch rng.Intn(10) {
			case 0:
				c.Dec = 90
			case 1:
				c.Dec = -90
			}
			c.Z, c.Chi2 = redshift(), likelihood()
			c.I, c.NGal = 15+rng.Float64()*5, rng.Intn(40)
		}
		target := astro.MustBox(0, 360, -90, 90)
		if knobs&4 != 0 {
			target = astro.MustBox(0, 180, -90, 89.9)
		}

		fd, err := NewDBFinder(sqldb.Open(512), p, kcorr, height)
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.candT.BulkInsertFunc(len(cands), candidateRows(cands)); err != nil {
			t.Fatal(err)
		}
		if err := fd.buildCandidateZones(); err != nil {
			t.Fatal(err)
		}
		if _, err := fd.MakeClusters(target); err != nil {
			t.Fatal(err)
		}
		got, err := fd.readCandidates(fd.clusterT)
		if err != nil {
			t.Fatal(err)
		}

		set := NewCandidateSet(cands)
		var want []Candidate
		for _, c := range cands {
			if !target.Contains(c.Ra, c.Dec) {
				continue
			}
			ok, err := IsCluster(p, c, kcorr, set)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, c)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("swept fIsCluster keeps %d clusters, per-candidate IsCluster %d\ngot  %v\nwant %v", len(got), len(want), got, want)
		}
	})
}
