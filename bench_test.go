// Hand-run ablations of the design choices the paper credits, each
// timing a choice nothing else measures. cmd/benchtab prints the paper's
// tables and figures, bench/ (declared in BENCHMARK.json) is the repo's
// benchmark, and TestPipelineCounts pins the pipeline's exact counts.
// Absolute times differ from the 2004 hardware; the shapes — who wins,
// by what factor — are what these show.
package gridbcg

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/astro"
	"repro/internal/htm"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// Shared fixtures: one synthetic survey, generated once.
var (
	benchOnce sync.Once
	benchCat  *sky.Catalog
)

func benchCatalog(tb testing.TB) *sky.Catalog {
	tb.Helper()
	benchOnce.Do(func() {
		cat, err := sky.Generate(sky.GenConfig{
			Region: astro.MustBox(193.9, 196.4, 1.2, 3.8),
			Seed:   20040801, // the paper's first submission date
		})
		if err != nil {
			tb.Fatal(err)
		}
		benchCat = cat
	})
	return benchCat
}

// --- Zone search: point probes vs the batched zone join ---------------------

// BenchmarkZoneSearch answers the same probe set over spZone's
// column-primary Zone through the per-probe SearchTable plan (one segment
// range scan per probe per zone) and through zone.Sweep (one synchronized
// sweep per zone); the gap is the batched join's speedup at its source.
func BenchmarkZoneSearch(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	db := sqldb.Open(0)
	zt, err := zone.InstallZoneTableColumnar(db, "Zone", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		b.Fatal(err)
	}
	probes := make([]zone.Probe, 256)
	for i := range probes {
		probes[i] = zone.Probe{
			Ra:  194.0 + float64(i%64)*0.035,
			Dec: 1.4 + float64(i%37)*0.06,
			R:   0.1,
		}
	}
	b.Run("Probe", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			for _, p := range probes {
				err := zone.SearchTable(zt, astro.ZoneHeightDeg, p.Ra, p.Dec, p.R,
					func(zone.ZoneRow) { n++ })
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Batch", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			err := zone.Sweep(context.Background(), zone.TableSource(zt, astro.ZoneHeightDeg), probes,
				zone.SweepOptions{Workers: 1}, func(int, zone.ZoneRow) { n++ })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations: the design choices §2.6 credits ----------------------------

// table3Target is one TAM field: 0.25 deg².
func table3Target() astro.Box { return astro.MustBox(195.0, 195.5, 2.3, 2.8) }

// BenchmarkAblationParallelSweep sweeps DBFinder.Workers, the size of
// the pool that runs fBCGCandidate, over the full pipeline: the pool's
// workers claim bands of zones, one band at a time, and each band's
// zone.Sweep is sequential; workers=1 runs the bands one after another.
// Output and pages read are identical at every setting
// (TestParallelWorkersMatchSequential), so the deltas are pure
// scheduling: on a single core the extra workers only add coordination
// overhead, on N cores the candidate task approaches 1/N.
func BenchmarkAblationParallelSweep(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	target := table3Target()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := sqldb.Open(0)
				f, err := maxbcg.NewDBFinder(db, maxbcg.DefaultParams(), cat.Kcorr, 0)
				if err != nil {
					b.Fatal(err)
				}
				f.Workers = workers
				if _, err := f.ImportGalaxies(cat, target.Expand(1.0)); err != nil {
					b.Fatal(err)
				}
				_, report, err := f.Run(target, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(report.Total().Elapsed.Seconds(), "elapsed-s")
			}
		})
	}
}

// BenchmarkBulkVsInsert is the ingest ablation: loading one table through
// Table.BulkInsert (encode once, sort the run, write packed pages
// bottom-up) on the zone-table schema the paper's spZone rebuilds, from
// shuffled rows and from sorted ones. Bulk's rows arrive in random order,
// so it pays for its sort (all but a row or two go through the sorted
// run); Ordered loads the same rows pre-sorted by (zoneid, ra), the order
// every pipeline load arrives in, and streams into the tree.
func BenchmarkBulkVsInsert(b *testing.B) {
	b.ReportAllocs()
	cols := []sqldb.Column{
		{Name: "zoneid", Type: sqldb.TInt},
		{Name: "ra", Type: sqldb.TFloat},
		{Name: "dec", Type: sqldb.TFloat},
		{Name: "objid", Type: sqldb.TInt},
		{Name: "i", Type: sqldb.TFloat},
	}
	makeRows := func(n int) [][]sqldb.Value {
		rng := rand.New(rand.NewSource(20040801))
		rows := make([][]sqldb.Value, n)
		for i := range rows {
			rows[i] = []sqldb.Value{
				sqldb.Int(int64(rng.Intn(400))),
				sqldb.Float(rng.Float64() * 360),
				sqldb.Float(rng.Float64()*180 - 90),
				sqldb.Int(int64(i)),
				sqldb.Float(rng.Float64() * 25),
			}
		}
		return rows
	}
	for _, n := range []int{1000, 100000} {
		rows := makeRows(n)
		ordered := append([][]sqldb.Value(nil), rows...)
		sort.SliceStable(ordered, func(a, b int) bool {
			if ordered[a][0].I != ordered[b][0].I {
				return ordered[a][0].I < ordered[b][0].I
			}
			return ordered[a][1].F < ordered[b][1].F
		})
		for _, load := range []struct {
			name string
			rows [][]sqldb.Value
		}{{"Bulk", rows}, {"Ordered", ordered}} {
			b.Run(fmt.Sprintf("%s-%drows", load.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					db := sqldb.Open(256)
					t, err := db.CreateTableClustered("z", cols, []string{"zoneid", "ra"})
					if err != nil {
						b.Fatal(err)
					}
					if err := t.BulkInsert(load.rows); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationEarlyFilter removes the χ² early filter (cutoff → ∞) so
// every galaxy reaches the neighbour-count stage: the cost the early JOIN
// filter avoids.
func BenchmarkAblationEarlyFilter(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	small := astro.MustBox(195.1, 195.3, 2.45, 2.65)
	run := func(b *testing.B, cutoff float64) {
		b.ReportAllocs()
		p := maxbcg.DefaultParams()
		p.Chi2Cutoff = cutoff
		f, err := maxbcg.NewFinder(cat, p, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.FindCandidates(small); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("WithEarlyFilter", func(b *testing.B) { run(b, maxbcg.DefaultParams().Chi2Cutoff) })
	b.Run("NoEarlyFilter", func(b *testing.B) { run(b, 1e9) })
}

// BenchmarkAblationSpatialIndex compares the three neighbour-search access
// paths on identical queries: zone (the paper's choice), HTM (rejected for
// performance), and a full scan.
func BenchmarkAblationSpatialIndex(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	zidx, err := zone.Build(cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		b.Fatal(err)
	}
	hidx, err := htm.Build(cat.Galaxies, 0)
	if err != nil {
		b.Fatal(err)
	}
	query := func(i int) (float64, float64) {
		return 194.5 + float64(i%100)*0.015, 2.0 + float64(i%37)*0.04
	}
	b.Run("Zone", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			ra, dec := query(i)
			zidx.Visit(ra, dec, 0.25, func(zone.Neighbor) { n++ })
		}
	})
	b.Run("HTM", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			ra, dec := query(i)
			hidx.Visit(ra, dec, 0.25, func(htm.Entry, float64) { n++ })
		}
	})
	b.Run("FullScan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ra, dec := query(i)
			zone.BruteForce(cat.Galaxies, ra, dec, 0.25)
		}
	})
}

// BenchmarkAblationZoneHeight sweeps the zone height: too thin means many
// zone seeks, too thick means wide ra scans.
func BenchmarkAblationZoneHeight(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	for _, h := range []float64{astro.ZoneHeightDeg, 4 * astro.ZoneHeightDeg, 0.1, 0.5} {
		b.Run(fmt.Sprintf("h-%.4fdeg", h), func(b *testing.B) {
			b.ReportAllocs()
			idx, err := zone.Build(cat.Galaxies, h)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				ra := 194.5 + float64(i%100)*0.015
				idx.Visit(ra, 2.5, 0.25, func(zone.Neighbor) { n++ })
			}
		})
	}
}

// BenchmarkAblationCursorVsApply reproduces §2.6's "SQL cursors ... are
// very slow": fetching rows one query at a time vs one set-oriented
// statement.
func BenchmarkAblationCursorVsApply(b *testing.B) {
	b.ReportAllocs()
	db := sqldb.Open(0)
	if _, err := db.Exec("CREATE TABLE t (k bigint PRIMARY KEY, v float)"); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Table("t")
	const rows = 2000
	if err := tbl.BulkInsertFunc(rows, func(i int) []sqldb.Value {
		return []sqldb.Value{sqldb.Int(int64(i)), sqldb.Float(float64(i))}
	}); err != nil {
		b.Fatal(err)
	}
	b.Run("RowAtATimeQueries", func(b *testing.B) {
		b.ReportAllocs()
		// One statement per row, the cursor pattern of spMakeCandidates.
		for i := 0; i < b.N; i++ {
			var sum float64
			for k := 0; k < rows; k++ {
				r, err := db.Query("SELECT v FROM t WHERE k = ?", sqldb.Int(int64(k)))
				if err != nil {
					b.Fatal(err)
				}
				r.Next()
				v, _ := r.Row()[0].AsFloat()
				sum += v
			}
		}
	})
	b.Run("SetOriented", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := db.Query("SELECT SUM(v) FROM t")
			if err != nil {
				b.Fatal(err)
			}
			r.Next()
		}
	})
}
