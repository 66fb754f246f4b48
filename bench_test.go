// Benchmarks that regenerate the paper's evaluation artifacts, one per
// table and figure (see README.md, "Benchmarks and BENCH snapshots", and
// cmd/benchtab for the harness that prints paper-style rows). Absolute
// times differ from the 2004 hardware; the shapes — who wins, by what
// factor, where overheads fall — are the reproduction targets.
package gridbcg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/cluster"
	"repro/internal/htm"
	"repro/internal/maxbcg"
	"repro/internal/perfmodel"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
	"repro/internal/tam"
	"repro/internal/zone"
)

// Shared fixtures: one synthetic survey, generated once.
var (
	benchOnce sync.Once
	benchCat  *sky.Catalog
)

func benchCatalog(b *testing.B) *sky.Catalog {
	b.Helper()
	benchOnce.Do(func() {
		cat, err := sky.Generate(sky.GenConfig{
			Region: astro.MustBox(193.9, 196.4, 1.2, 3.8),
			Seed:   20040801, // the paper's first submission date
		})
		if err != nil {
			b.Fatal(err)
		}
		benchCat = cat
	})
	return benchCat
}

// benchTarget is the standard benchmark target: 0.5 x 1.2 deg with full
// 1-degree import margins inside the survey.
func benchTarget() astro.Box { return astro.MustBox(194.9, 195.4, 1.9, 3.1) }

// --- Table 1: SQL cluster performance, no partitioning vs 3-way ----------

func BenchmarkTable1NoPartition(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(cat, benchTarget(), cluster.Config{
			Nodes: 1, Params: maxbcg.DefaultParams(),
		})
		if err != nil {
			b.Fatal(err)
		}
		elapsed, cpu, io, gals := res.Totals()
		b.ReportMetric(elapsed.Seconds(), "elapsed-s")
		b.ReportMetric(cpu.Seconds(), "cpu-s")
		b.ReportMetric(float64(io), "io-ops")
		b.ReportMetric(float64(gals), "galaxies")
	}
}

func BenchmarkTable1ThreeWay(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(cat, benchTarget(), cluster.Config{
			Nodes: 3, Params: maxbcg.DefaultParams(),
		})
		if err != nil {
			b.Fatal(err)
		}
		elapsed, cpu, io, gals := res.Totals()
		b.ReportMetric(elapsed.Seconds(), "elapsed-s")
		b.ReportMetric(cpu.Seconds(), "cpu-s")
		b.ReportMetric(float64(io), "io-ops")
		b.ReportMetric(float64(gals), "galaxies")
	}
}

// --- Table 2: scale-factor arithmetic -------------------------------------

func BenchmarkTable2ScaleFactors(b *testing.B) {
	b.ReportAllocs()
	var total float64
	for i := 0; i < b.N; i++ {
		s := perfmodel.ComputeScaleFactors(perfmodel.TAMConfig(), perfmodel.SQLConfig())
		total = s.Total
	}
	b.ReportMetric(total, "total-scale-factor")
}

// --- Table 3: TAM baseline vs SQL implementation --------------------------

// table3Target is one TAM field: 0.25 deg².
func table3Target() astro.Box { return astro.MustBox(195.0, 195.5, 2.3, 2.8) }

func BenchmarkTable3TAMBaseline(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	cfg := tam.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tam.Run(cat, table3Target(), cfg, b.TempDir()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3SQLServer(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := sqldb.Open(0)
		f, err := maxbcg.NewDBFinder(db, maxbcg.DefaultParams(), cat.Kcorr, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ImportGalaxies(cat, table3Target().Expand(1.0)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := f.Run(table3Target(), false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: the TAM buffer compromise ----------------------------------

func BenchmarkFigure1BufferTruncation(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	target := table3Target()
	truncated := 0.0
	for i := 0; i < b.N; i++ {
		small := tam.DefaultConfig() // 0.25 deg buffer
		small.Kcorr = cat.Kcorr
		big := small
		big.BufferDeg = 0.5 // the ideal Figure 1 dashed area
		rs, err := tam.Run(cat, target, small, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		rb, err := tam.Run(cat, target, big, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		smallBy := make(map[int64]maxbcg.Candidate, len(rs.Candidates))
		for _, c := range rs.Candidates {
			smallBy[c.ObjID] = c
		}
		truncated = 0
		for _, c := range rb.Candidates {
			if s, ok := smallBy[c.ObjID]; !ok || s.NGal < c.NGal {
				truncated++
			}
		}
		b.ReportMetric(truncated, "truncated-candidates")
		b.ReportMetric(float64(len(rb.Candidates)), "ideal-candidates")
	}
}

// --- Figure 2: candidate pipeline densities --------------------------------

func BenchmarkFigure2CandidateDensity(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	f, err := maxbcg.NewFinder(cat, maxbcg.DefaultParams(), 0)
	if err != nil {
		b.Fatal(err)
	}
	area := table3Target()
	n := 0
	for i := range cat.Galaxies {
		if area.Contains(cat.Galaxies[i].Ra, cat.Galaxies[i].Dec) {
			n++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := f.FindCandidates(area)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(cands))/float64(n)*100, "candidate-pct")
		b.ReportMetric(float64(n)/area.FlatArea()*0.25, "galaxies-per-field")
	}
}

// --- Figure 3: 5-parameter selection from the Galaxy table -----------------

func BenchmarkFigure3Selection(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	db := sqldb.Open(0)
	f, err := maxbcg.NewDBFinder(db, maxbcg.DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.ImportGalaxies(cat, cat.Region); err != nil {
		b.Fatal(err)
	}
	b.Run("FullScanFilter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := db.Query(`SELECT COUNT(*) FROM galaxy
				WHERE ra BETWEEN 194.9 AND 195.4 AND dec BETWEEN 2.3 AND 2.8`)
			if err != nil {
				b.Fatal(err)
			}
			rows.Next()
		}
	})
	b.Run("ClusteredRangeScan", func(b *testing.B) {
		b.ReportAllocs()
		// objid is the clustered key; a range on it prunes pages.
		for i := 0; i < b.N; i++ {
			rows, err := db.Query("SELECT COUNT(*) FROM galaxy WHERE objid BETWEEN 1000 AND 2000")
			if err != nil {
				b.Fatal(err)
			}
			rows.Next()
		}
	})
}

// --- Figure 4: buffer overhead shrinks with target size --------------------

func BenchmarkFigure4BufferOverhead(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	for _, side := range []float64{0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("side-%gdeg", side), func(b *testing.B) {
			b.ReportAllocs()
			target := astro.MustBox(195.15-side/2, 195.15+side/2, 2.5-side/2, 2.5+side/2)
			buffered := target.Expand(0.5)
			overhead := buffered.FlatArea() / target.FlatArea()
			f, err := maxbcg.NewFinder(cat, maxbcg.DefaultParams(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.FindCandidates(buffered); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(overhead, "buffer-overhead-x")
		})
	}
}

// --- Figure 5: candidate max-likelihood search -----------------------------

func BenchmarkFigure5CandidateSearch(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	f, err := maxbcg.NewFinder(cat, maxbcg.DefaultParams(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := f.FindCandidates(table3Target().Expand(0.5))
	if err != nil {
		b.Fatal(err)
	}
	p := maxbcg.DefaultParams()
	b.Run("CandidateSet", func(b *testing.B) {
		b.ReportAllocs()
		cset := maxbcg.NewCandidateSet(cands)
		for i := 0; i < b.N; i++ {
			c := cands[i%len(cands)]
			if _, err := maxbcg.IsCluster(p, c, cat.Kcorr, cset); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveScan", func(b *testing.B) {
		b.ReportAllocs()
		naive := naiveCandidateSearcher(cands)
		for i := 0; i < b.N; i++ {
			c := cands[i%len(cands)]
			if _, err := maxbcg.IsCluster(p, c, cat.Kcorr, naive); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// naiveCandidateSearcher scans every candidate per query: the
// "no index on the Candidates table" ablation.
type naiveCandidateSearcher []maxbcg.Candidate

func (s naiveCandidateSearcher) SearchCandidates(ra, dec, r float64, visit func(maxbcg.Candidate)) error {
	r2 := astro.Chord2FromAngle(r)
	center := astro.UnitVector(ra, dec)
	for _, c := range s {
		if center.Chord2(astro.UnitVector(c.Ra, c.Dec)) < r2 {
			visit(c)
		}
	}
	return nil
}

// --- Figure 6: partition planning and speedup ------------------------------

func BenchmarkFigure6Partitioning(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	survey := astro.MustBox(172, 185, -3, 5)
	paperTarget := astro.MustBox(173, 184, -2, 4)
	for i := 0; i < b.N; i++ {
		parts, err := cluster.Plan(paperTarget, 3, 0.5, survey)
		if err != nil {
			b.Fatal(err)
		}
		dup := cluster.DuplicatedArea(parts, paperTarget, 0.5, survey)
		b.ReportMetric(dup, "duplicated-deg2") // paper: 4 x 13 = 52
	}
	for _, nodes := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("run-%dnodes", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(cat, benchTarget(), cluster.Config{
					Nodes: nodes, Params: maxbcg.DefaultParams(),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Elapsed.Seconds(), "elapsed-s")
			}
		})
	}
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

// --- SQL planner: the batched zone join from plain SQL ----------------------

// BenchmarkSQLZoneJoin measures the paper's neighbour query through the
// sqldb planner — a probe table lateral-joined against fGetNearbyObjEqZd,
// lowered to ZoneSweepJoin over the columnar zone store — against the Go
// entry point answering the same probes and materialising the same
// (pid, objID, distance) rows. The SQL lane pays parse + plan + Value
// materialisation per hit; the gap between the lanes is the whole cost of
// SQL access to the sweep (the acceptance bound is 1.3x).
func BenchmarkSQLZoneJoin(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	db := sqldb.Open(0)
	zt, err := zone.InstallZoneTableColumnar(db, "Zone", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		b.Fatal(err)
	}
	ct := zt.Columnar()
	zone.RegisterNearbyTVF(db, zt, astro.ZoneHeightDeg)
	rng := rand.New(rand.NewSource(20040801))
	probes := make([]zone.Probe, 256)
	for i := range probes {
		probes[i] = zone.Probe{
			Ra:  194.1 + rng.Float64()*2.0,
			Dec: 1.4 + rng.Float64()*2.2,
			R:   0.02 + rng.Float64()*0.1,
		}
	}
	if _, err := db.Exec("CREATE TABLE Probes (pid bigint PRIMARY KEY, ra float, dec float, r float)"); err != nil {
		b.Fatal(err)
	}
	pt, _ := db.Table("Probes")
	for i, p := range probes {
		err := pt.Insert([]sqldb.Value{
			sqldb.Int(int64(i)), sqldb.Float(p.Ra), sqldb.Float(p.Dec), sqldb.Float(p.R),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	const query = `SELECT p.pid, n.objID, n.distance FROM Probes p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n`

	b.Run("SQL", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			rows, err := db.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			n = rows.Len()
		}
		b.ReportMetric(float64(n), "hits")
	})
	b.Run("GoSweep", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			// The comparable deliverable: the same materialised result set,
			// per-probe rows buffered and flattened in probe order.
			hits := make([][][]sqldb.Value, len(probes))
			err := zone.Sweep(context.Background(), zone.Columnar(ct, astro.ZoneHeightDeg), probes,
				zone.SweepOptions{Workers: 1}, func(pi int, zr zone.ZoneRow) {
					hits[pi] = append(hits[pi], []sqldb.Value{
						sqldb.Int(int64(pi)), sqldb.Int(zr.ObjID), sqldb.Float(zr.Distance),
					})
				})
			if err != nil {
				b.Fatal(err)
			}
			var out [][]sqldb.Value
			for _, h := range hits {
				out = append(out, h...)
			}
			n = len(out)
		}
		b.ReportMetric(float64(n), "hits")
	})
}

// --- Ablations: the design choices §2.6 credits ----------------------------

// BenchmarkAblationParallelSweep sweeps the worker-pool size of the
// batched zone join over the full DBFinder pipeline: workers=1 is the
// sequential sweep PR 1 introduced, workers>1 claims zones from a pool
// with one cursor per worker. Output is bit-identical at every setting
// (TestParallelWorkersMatchSequential), so the deltas are pure scheduling:
// on a single core the extra workers only add coordination overhead, on N
// cores the sweep-dominated tasks approach 1/N.
func BenchmarkAblationParallelSweep(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	target := table3Target()
	// "workers=N", not "workers-N": go test appends a -GOMAXPROCS suffix
	// to benchmark names (except when GOMAXPROCS=1), so a name ending in
	// -digit would be ambiguous to strip in benchgate's snapshot keys.
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

// BenchmarkAblationColumnarSweep answers one candidate-sized probe batch
// with the columnar sweep at Workers=1 (packed float arrays per zone
// segment, no per-row decode): its wall clock and allocs/op, which CI
// gates under the Columnar sub-benchmark's name. The output is pinned to
// per-probe SearchTable by TestColumnarSweepMatchesRowSweep.
func BenchmarkAblationColumnarSweep(b *testing.B) {
	b.ReportAllocs()
	cat := benchCatalog(b)
	db := sqldb.Open(0)
	colT, err := zone.InstallZoneTableColumnar(db, "Zone", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		b.Fatal(err)
	}
	ct := colT.Columnar()
	rng := rand.New(rand.NewSource(20040801))
	probes := make([]zone.Probe, 512)
	for i := range probes {
		probes[i] = zone.Probe{
			Ra:  194.1 + rng.Float64()*2.0,
			Dec: 1.4 + rng.Float64()*2.2,
			R:   0.02 + rng.Float64()*0.1,
		}
	}
	b.Run("Columnar", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			err := zone.Sweep(context.Background(), zone.Columnar(ct, astro.ZoneHeightDeg), probes,
				zone.SweepOptions{Workers: 1}, func(int, zone.ZoneRow) { n++ })
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)/float64(b.N), "hits")
	})
}

// BenchmarkParallelSweepScaling sweeps one candidate-sized probe batch
// over the column segments at Workers 1/2/4/8. zone.Sweep ignores
// Workers, so the lanes time the same sequential sweep; every iteration
// asserts that pool io-ops and the output checksum equal the Workers=1
// reference, and reports speedup-x against its self-timed wall clock.
// CI gates ns/op and the exact io-ops of the workers=8 lane.
func BenchmarkParallelSweepScaling(b *testing.B) {
	cat := benchCatalog(b)
	db := sqldb.Open(0)
	colT, err := zone.InstallZoneTableColumnar(db, "Zone", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		b.Fatal(err)
	}
	ct := colT.Columnar()
	pool := db.Pool()
	rng := rand.New(rand.NewSource(20040801))
	probes := make([]zone.Probe, 512)
	for i := range probes {
		probes[i] = zone.Probe{
			Ra:  194.1 + rng.Float64()*2.0,
			Dec: 1.4 + rng.Float64()*2.2,
			R:   0.02 + rng.Float64()*0.1,
		}
	}
	mix := func(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }
	src := zone.Columnar(ct, astro.ZoneHeightDeg)
	sweepOnce := func(workers int) (uint64, storage.Stats) {
		before := pool.Stats()
		h := uint64(14695981039346656037)
		err := zone.Sweep(context.Background(), src, probes, zone.SweepOptions{Workers: workers},
			func(pi int, zr zone.ZoneRow) {
				h = mix(h, uint64(pi))
				h = mix(h, uint64(zr.ObjID))
				h = mix(h, math.Float64bits(zr.Distance))
			})
		if err != nil {
			b.Fatal(err)
		}
		return h, pool.Stats().Sub(before)
	}
	// Sequential reference: one warm-up pass so page residency is steady,
	// then the checksum, io delta, and wall clock to beat.
	wantSum, _ := sweepOnce(1)
	const seqReps = 3
	var wantIO storage.Stats
	start := time.Now()
	for r := 0; r < seqReps; r++ {
		sum, io := sweepOnce(1)
		if sum != wantSum {
			b.Fatal("sequential sweep not deterministic")
		}
		wantIO = io
	}
	seqNs := float64(time.Since(start).Nanoseconds()) / seqReps
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Columnar/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum, io := sweepOnce(workers)
				if sum != wantSum {
					b.Fatalf("workers=%d: output differs from the sequential sweep", workers)
				}
				if io != wantIO {
					b.Fatalf("workers=%d: io %+v, sequential %+v", workers, io, wantIO)
				}
			}
			b.ReportMetric(float64(wantIO.Total()), "io-ops")
			b.ReportMetric(seqNs/(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "speedup-x")
		})
	}
}

// BenchmarkBulkVsInsert is the ingest ablation: loading one table through
// Table.BulkInsert (encode once, sort the run, write packed pages
// bottom-up) versus per-row Insert (one root-to-leaf descent per row), on
// the zone-table schema the paper's spZone rebuilds. Bulk's rows arrive in
// random order, so it pays for its sort (all but a row or two go through
// the sorted run); Ordered loads the same rows pre-sorted by (zoneid, ra),
// the order every pipeline load arrives in, and streams into the tree.
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
		b.Run(fmt.Sprintf("Insert-%drows", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := sqldb.Open(256)
				t, err := db.CreateTableClustered("z", cols, []string{"zoneid", "ra"})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if err := t.Insert(r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
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
	for i := 0; i < rows; i++ {
		if err := tbl.Insert([]sqldb.Value{sqldb.Int(int64(i)), sqldb.Float(float64(i))}); err != nil {
			b.Fatal(err)
		}
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
