package fed_test

// BenchmarkFederatedSweep lives in this package's test binary on
// purpose: linking net/http into the root test binary would change the
// allocation profile TestPipelineCounts bounds. Here the federation
// overhead is measured against the in-process sweep answering the same
// probes over the same rows.

import (
	"context"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/fed"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

func BenchmarkFederatedSweep(b *testing.B) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(b, region, 7, 3000, 4)
	c, _ := startFederation(b, cat, fedTestTopo(region), fed.Options{})
	probes := testProbes(region, 11, 256)

	// Local baseline: one columnar zone table over the same region rows,
	// swept in-process — the numerator of the wire-overhead ratio.
	var gals []sky.Galaxy
	for _, g := range cat.Galaxies {
		if region.Contains(g.Ra, g.Dec) {
			gals = append(gals, g)
		}
	}
	db := sqldb.Open(0)
	zt, err := zone.InstallZoneTableColumnar(db, "Zone", gals, astro.ZoneHeightDeg)
	if err != nil {
		b.Fatal(err)
	}
	src := zone.TableSource(zt, astro.ZoneHeightDeg)
	localOnce := func() (hits int64, err error) {
		err = zone.Sweep(context.Background(), src, probes,
			zone.SweepOptions{Workers: 2}, func(int, zone.ZoneRow) { hits++ })
		return
	}
	wantHits, err := localOnce()
	if err != nil {
		b.Fatal(err)
	}
	if wantHits == 0 {
		b.Fatal("baseline sweep produced no hits")
	}
	// Hand-timed baseline (testing.Benchmark would deadlock on the
	// framework's benchmark lock from inside a running benchmark).
	localNs := int64(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := localOnce(); err != nil {
			b.Fatal(err)
		}
		localNs = min(localNs, time.Since(start).Nanoseconds())
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hits int64
		err := c.Sweep(context.Background(), probes, func(int, zone.ZoneRow) { hits++ })
		if err != nil {
			b.Fatal(err)
		}
		if hits != wantHits {
			b.Fatalf("federated sweep returned %d hits, local %d", hits, wantHits)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/1e9, "elapsed_s")
	b.ReportMetric(perOp/float64(localNs), "fed_overhead_x")
	b.ReportMetric(float64(wantHits), "hits")
}
