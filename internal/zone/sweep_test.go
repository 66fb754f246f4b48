package zone

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// sweepFixture builds a seam-straddling catalog and probe set sized to
// spread across many zones and both sides of the RA wrap.
func sweepFixture(t testing.TB) ([]sky.Galaxy, float64, []Probe) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	const n = 4000
	gals := make([]sky.Galaxy, n)
	for i := range gals {
		gals[i] = sky.Galaxy{
			ObjID: int64(1000 + i),
			Ra:    rng.Float64()*8 - 4, // straddle RA 0/360
			Dec:   rng.Float64()*4 - 2,
			I:     rng.Float64() * 2,
			Gr:    rng.Float64(),
			Ri:    rng.Float64(),
		}
		if gals[i].Ra < 0 {
			gals[i].Ra += 360
		}
	}
	var probes []Probe
	for i := 0; i < 300; i++ {
		ra := rng.Float64()*8 - 4
		if ra < 0 {
			ra += 360
		}
		probes = append(probes, Probe{Ra: ra, Dec: rng.Float64()*4 - 2, R: 0.05 + rng.Float64()*0.2})
	}
	return gals, astro.ZoneHeightDeg, probes
}

// TestSweepEquivalentToSequentialBaselines pins the redesigned zone.Sweep
// entry point bit-identical to the sequential sweeps it replaced: the
// Workers=1 path over both sources is the exact algorithm BatchSearch /
// BatchSearchColumnar ran (same drivers, same sweepers), and this test
// anchors the whole matrix — row/columnar × worker counts — to that
// baseline plus the independent per-probe SearchTable oracle.
func TestSweepEquivalentToSequentialBaselines(t *testing.T) {
	gals, height, probes := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	ct := zt.Columnar()
	if ct == nil {
		t.Fatal("no columnar projection")
	}

	type call struct {
		probe int
		row   ZoneRow
	}
	run := func(src Source, workers int) []call {
		var out []call
		if err := Sweep(context.Background(), src, probes, SweepOptions{Workers: workers}, func(pi int, zr ZoneRow) {
			out = append(out, call{probe: pi, row: zr})
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	baseline := run(Rows(zt, height), 1)
	if len(baseline) == 0 {
		t.Fatal("fixture matches nothing")
	}

	// The independent oracle: per-probe SearchTable answers, which the
	// sweep must reproduce per probe in the same (zone, ra) order.
	perProbe := make([][]ZoneRow, len(probes))
	for pi, p := range probes {
		if err := SearchTable(zt, height, p.Ra, p.Dec, p.R, func(zr ZoneRow) {
			perProbe[pi] = append(perProbe[pi], zr)
		}); err != nil {
			t.Fatal(err)
		}
	}
	gotPerProbe := make([][]ZoneRow, len(probes))
	for _, c := range baseline {
		gotPerProbe[c.probe] = append(gotPerProbe[c.probe], c.row)
	}
	if !reflect.DeepEqual(gotPerProbe, perProbe) {
		t.Fatal("Sweep(Rows, Workers:1) disagrees with the SearchTable oracle")
	}

	for _, src := range []struct {
		name string
		s    Source
	}{{"Rows", Rows(zt, height)}, {"Columnar", Columnar(ct, height)}, {"TableSource", TableSource(zt, height)}} {
		for _, workers := range []int{1, 2, 4, 8} {
			got := run(src.s, workers)
			if !reflect.DeepEqual(got, baseline) {
				t.Errorf("%s workers=%d: call sequence differs from the sequential row baseline", src.name, workers)
			}
		}
	}
}

// TestSweepIOOpsIndependentOfWorkers pins the leaf-cache invariant that
// keeps Table 1's I/O column trustworthy under parallelism: the pool
// fetch count of a sweep is a pure function of the probe set and source,
// not of the worker count or scheduling. Caches reset at zone boundaries,
// so a cache hit can never substitute for a fetch another worker would
// have made.
func TestSweepIOOpsIndependentOfWorkers(t *testing.T) {
	gals, height, probes := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	pool := db.Pool()

	for _, src := range []struct {
		name string
		s    Source
	}{{"Rows", Rows(zt, height)}, {"Columnar", Columnar(zt.Columnar(), height)}} {
		t.Run(src.name, func(t *testing.T) {
			io := func(workers int) storage.Stats {
				// Warm the pool so residency does not depend on run order.
				if err := Sweep(context.Background(), src.s, probes, SweepOptions{Workers: workers}, func(int, ZoneRow) {}); err != nil {
					t.Fatal(err)
				}
				before := pool.Stats()
				if err := Sweep(context.Background(), src.s, probes, SweepOptions{Workers: workers}, func(int, ZoneRow) {}); err != nil {
					t.Fatal(err)
				}
				return pool.Stats().Sub(before)
			}
			want := io(1)
			if want.LogicalReads == 0 {
				t.Fatal("sequential sweep did no I/O; fixture broken")
			}
			for _, workers := range []int{2, 4, 8} {
				for rep := 0; rep < 2; rep++ {
					if got := io(workers); got != want {
						t.Fatalf("workers=%d rep %d: io %+v, sequential %+v", workers, rep, got, want)
					}
				}
			}
		})
	}
}

// TestSweepEmptyAndNilSources pins the entry point's edge contract.
func TestSweepEmptyAndNilSources(t *testing.T) {
	gals, height, _ := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTable(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	if err := Sweep(context.Background(), Rows(zt, height), nil, SweepOptions{}, func(int, ZoneRow) {
		t.Error("no probes, but fn called")
	}); err != nil {
		t.Fatal(err)
	}
	if err := Sweep(context.Background(), Rows(nil, height), []Probe{{R: 1}}, SweepOptions{}, func(int, ZoneRow) {}); err == nil {
		t.Error("nil row table accepted")
	}
	// A table without a projection falls back to rows via TableSource.
	var n int
	if err := Sweep(context.Background(), TableSource(zt, height), []Probe{{Ra: gals[0].Ra, Dec: gals[0].Dec, R: 0.1}},
		SweepOptions{Workers: 2}, func(int, ZoneRow) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("TableSource fallback found nothing around a known galaxy")
	}
}
