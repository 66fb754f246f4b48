package zone

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

// seqCall is one call of a sweep's fn: tests compare the exact global
// callback sequence, not just the per-probe row sets, since downstream
// tables depend on the order.
type seqCall struct {
	probe int
	row   ZoneRow
}

// parallelFixture is the wraparound-RA dataset of wrap_test.go plus a
// dense survey patch: the seam galaxies exercise the split ra windows
// (zones with two disjoint scan ranges), the random probes many
// populated zones on both sides of the seam.
func parallelFixture(t *testing.T) (gals []sky.Galaxy, height float64, probes []Probe) {
	t.Helper()
	gals = seamGalaxies()
	height = 0.25
	for _, p := range seamProbes() {
		probes = append(probes, Probe{Ra: p[0], Dec: p[1], R: p[2]})
	}
	rng := rand.New(rand.NewSource(20040801))
	for i := 0; i < 40; i++ {
		probes = append(probes, Probe{
			Ra:  rng.Float64() * 0.6,
			Dec: 0.5 + rng.Float64(),
			R:   0.05 + rng.Float64()*0.2,
		})
		probes = append(probes, Probe{
			Ra:  359.4 + rng.Float64()*0.6,
			Dec: 0.5 + rng.Float64(),
			R:   0.05 + rng.Float64()*0.2,
		})
	}
	probes = append(probes, Probe{Ra: 12, Dec: 1, R: -0.5}) // matches nothing
	return gals, height, probes
}

// TestParallelBatchSearchMatchesSequential pins that the Workers setting
// changes nothing: over a seam-straddling dataset, TableSource sweeps at
// every setting, repeated, emit the one global callback sequence, which
// matches SearchTable and BruteForce (requireOracles).
func TestParallelBatchSearchMatchesSequential(t *testing.T) {
	gals, height, probes := parallelFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	want, err := record(context.Background(), TableSource(zt, height), probes, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireOracles(t, zt, gals, height, probes, want)

	for _, workers := range []int{0, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				got, err := record(context.Background(), TableSource(zt, height), probes, SweepOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rep %d: sweep emitted %d calls, Workers 1 %d (or order/values differ)",
						rep, len(got), len(want))
				}
			}
		})
	}
}

// TestParallelBatchSearchSurvey repeats the check on a realistic
// zone-height survey patch, where thousands of thin zones replace the
// split windows.
func TestParallelBatchSearchSurvey(t *testing.T) {
	cat, err := sky.Generate(sky.GenConfig{
		Region: astro.MustBox(195.0, 195.6, 2.3, 2.9),
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	probes := make([]Probe, 120)
	for i := range probes {
		probes[i] = Probe{
			Ra:  195.0 + rng.Float64()*0.6,
			Dec: 2.3 + rng.Float64()*0.6,
			R:   0.02 + rng.Float64()*0.12,
		}
	}
	want, err := record(context.Background(), TableSource(zt, astro.ZoneHeightDeg), probes, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireOracles(t, zt, cat.Galaxies, astro.ZoneHeightDeg, probes, want)
	got, err := record(context.Background(), TableSource(zt, astro.ZoneHeightDeg), probes, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Workers 4 sweep emitted %d calls, Workers 1 %d (or order/values differ)",
			len(got), len(want))
	}
}
