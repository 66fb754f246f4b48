package zone

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

// seamGalaxies builds a deterministic field straddling the ra = 0°/360°
// seam: half the objects just below 360°, half just above 0°, plus a thin
// sprinkling elsewhere so the index has more than one populated window.
func seamGalaxies() []sky.Galaxy {
	rng := rand.New(rand.NewSource(42))
	var gals []sky.Galaxy
	add := func(ra, dec float64) {
		gals = append(gals, sky.Galaxy{
			ObjID: int64(len(gals) + 1), Ra: ra, Dec: dec,
			I: 18 + rng.Float64(), Gr: 1.0 + rng.Float64()*0.1, Ri: 0.4 + rng.Float64()*0.1,
		})
	}
	for i := 0; i < 120; i++ {
		add(359.5+rng.Float64()*0.5, 0.5+rng.Float64())
	}
	for i := 0; i < 120; i++ {
		add(rng.Float64()*0.5, 0.5+rng.Float64())
	}
	for i := 0; i < 60; i++ {
		add(10+rng.Float64()*5, 0.5+rng.Float64())
	}
	return gals
}

// seamProbes are circles that straddle the seam from both sides, plus one
// far from it as a control.
func seamProbes() [][3]float64 {
	return [][3]float64{
		{0.05, 1.0, 0.3},
		{359.93, 1.2, 0.3},
		{0.0, 0.9, 0.15},
		{359.999, 1.1, 0.25},
		{12.0, 1.0, 0.3}, // control away from the seam
	}
}

// TestVisitWrapsAroundRaSeam is the regression test for probe circles
// straddling ra = 0°/360°: the zone index must return exactly what the
// brute-force oracle does.
func TestVisitWrapsAroundRaSeam(t *testing.T) {
	gals := seamGalaxies()
	idx, err := Build(gals, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range seamProbes() {
		got := idx.Neighbors(p[0], p[1], p[2])
		want := BruteForce(gals, p[0], p[1], p[2])
		if len(want) == 0 {
			t.Fatalf("probe %v matches nothing; fixture broken", p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("probe %v: index found %d neighbours, brute force %d", p, len(got), len(want))
		}
	}
}

// TestSearchTableWrapsAroundRaSeam checks the same property on the
// DB-backed path: the clustered range scans must split the ra window at
// the seam.
func TestSearchTableWrapsAroundRaSeam(t *testing.T) {
	gals := seamGalaxies()
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range seamProbes() {
		var got []int64
		err := SearchTable(zt, 0.25, p[0], p[1], p[2], func(zr ZoneRow) {
			got = append(got, zr.ObjID)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(gals, p[0], p[1], p[2])
		wantIDs := make(map[int64]bool, len(want))
		for _, n := range want {
			wantIDs[n.Entry.ObjID] = true
		}
		if len(got) != len(want) {
			t.Errorf("probe %v: table search found %d neighbours, brute force %d", p, len(got), len(want))
			continue
		}
		for _, id := range got {
			if !wantIDs[id] {
				t.Errorf("probe %v: table search returned %d, not a brute-force match", p, id)
			}
		}
	}
}

// TestBatchSearchMatchesSearchTable drives the batched zone join over the
// seam fixture and a generated survey patch, asserting each probe receives
// exactly the per-probe path's rows in the same order, and brute force's
// neighbours.
func TestBatchSearchMatchesSearchTable(t *testing.T) {
	cases := []struct {
		name   string
		gals   []sky.Galaxy
		height float64
		probes []Probe
	}{
		{
			name: "seam", gals: seamGalaxies(), height: 0.25,
			probes: func() []Probe {
				var ps []Probe
				for _, p := range seamProbes() {
					ps = append(ps, Probe{Ra: p[0], Dec: p[1], R: p[2]})
				}
				return ps
			}(),
		},
		{
			name: "survey", height: astro.ZoneHeightDeg,
			gals: func() []sky.Galaxy {
				cat, err := sky.Generate(sky.GenConfig{
					Region: astro.MustBox(195.0, 195.5, 2.4, 2.9),
					Seed:   3,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cat.Galaxies
			}(),
			probes: func() []Probe {
				rng := rand.New(rand.NewSource(9))
				ps := make([]Probe, 80)
				for i := range ps {
					ps[i] = Probe{
						Ra:  195.0 + rng.Float64()*0.5,
						Dec: 2.4 + rng.Float64()*0.5,
						R:   0.02 + rng.Float64()*0.15,
					}
				}
				ps = append(ps, Probe{Ra: 195.2, Dec: 2.6, R: -1}) // negative radius matches nothing
				return ps
			}(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := sqldb.Open(0)
			zt, err := InstallZoneTableColumnar(db, "Zone", tc.gals, tc.height)
			if err != nil {
				t.Fatal(err)
			}
			got, err := record(context.Background(), TableSource(zt, tc.height), tc.probes, SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			requireOracles(t, zt, tc.gals, tc.height, tc.probes, got)
		})
	}
}
