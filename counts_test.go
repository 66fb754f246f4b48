package gridbcg

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/astro"
	"repro/internal/cluster"
	"repro/internal/maxbcg"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// raceEnabled is set by race_test.go: the race detector allocates for its
// own bookkeeping, so the allocation ceilings do not apply under -race.
var raceEnabled bool

// allocMargin is the headroom of each allocation ceiling over today's
// reading. Allocations move a little with the Go release and with which
// pool worker claims which band; a per-row allocation in any kernel
// below adds tens of thousands.
const allocMargin = 0.05

// TestPipelineCounts pins the deterministic work of the paper's hot paths
// on the benchmark catalog (seed 20040801). Pages read and rows answered
// are exact in both directions, at any GOMAXPROCS and pool size.
// Allocations and bytes allocated are ceilings: the highest reading at
// -cpu 1 and -cpu 2 plus allocMargin, taken from the second of two
// identical runs so one-time initialisation is not counted. A change that
// moves a count updates this table in the same commit and says why.
func TestPipelineCounts(t *testing.T) {
	cat := benchCatalog(t)

	// The sweep and SQL cases share one Zone, swept by the probes of the
	// rng below: 512 for a candidate-sized sweep, the first 256 as the
	// SQL probe table.
	db := sqldb.Open(0)
	zt, err := zone.InstallZoneTableColumnar(db, "Zone", cat.Galaxies, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	zone.RegisterNearbyTVF(db, zt, astro.ZoneHeightDeg)
	rng := rand.New(rand.NewSource(20040801))
	probes := make([]zone.Probe, 512)
	for i := range probes {
		probes[i] = zone.Probe{
			Ra:  194.1 + rng.Float64()*2.0,
			Dec: 1.4 + rng.Float64()*2.2,
			R:   0.02 + rng.Float64()*0.1,
		}
	}
	if _, err := db.Exec("CREATE TABLE Probes (pid bigint PRIMARY KEY, ra float, dec float, r float)"); err != nil {
		t.Fatal(err)
	}
	pt, _ := db.Table("Probes")
	if err := pt.BulkInsertFunc(256, func(i int) []sqldb.Value {
		p := probes[i]
		return []sqldb.Value{sqldb.Int(int64(i)), sqldb.Float(p.Ra), sqldb.Float(p.Dec), sqldb.Float(p.R)}
	}); err != nil {
		t.Fatal(err)
	}
	pages := func(op func() int64) (read, n int64) {
		before := db.Pool().Stats()
		n = op()
		return db.Pool().Stats().Sub(before).Total(), n
	}

	for _, tc := range []struct {
		name          string
		counts        map[string]int64
		allocs, bytes uint64 // today's highest reading
		op            func(t *testing.T) map[string]int64
	}{{
		// Table 1, one node: pages each task reads, 3,013 in all. The
		// pool is fixed at two workers, so allocations do not follow the
		// host's CPU count.
		name:   "table1",
		counts: map[string]int64{"spZone": 837, "fBCGCandidate": 1973, "fIsCluster": 203},
		allocs: 15_627, bytes: 70_738_704,
		op: func(t *testing.T) map[string]int64 {
			res, err := cluster.Run(cat, astro.MustBox(194.9, 195.4, 1.9, 3.1), cluster.Config{
				Nodes: 1, Params: maxbcg.DefaultParams(), Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int64{}
			for _, s := range res.Nodes[0].Report.Tasks {
				counts[s.Name] = s.IO
			}
			return counts
		},
	}, {
		// One candidate-sized probe batch over Zone's column segments.
		name:   "columnar_sweep",
		counts: map[string]int64{"pages": 844, "hits": 125_913},
		allocs: 873, bytes: 384_176,
		op: func(t *testing.T) map[string]int64 {
			read, hits := pages(func() (n int64) {
				err := zone.Sweep(context.Background(), zone.Columnar(zt.Columnar(), astro.ZoneHeightDeg), probes,
					zone.SweepOptions{}, func(int, zone.ZoneRow) { n++ })
				if err != nil {
					t.Fatal(err)
				}
				return n
			})
			return map[string]int64{"pages": read, "hits": hits}
		},
	}, {
		// The paper's neighbour query from SQL, planned as ZoneSweepJoin.
		// The pages include the two tree pages holding the 256 Probes rows.
		name:   "sql_zonejoin",
		counts: map[string]int64{"pages": 827, "rows": 64_313},
		allocs: 3_944, bytes: 35_292_656,
		op: func(t *testing.T) map[string]int64 {
			read, rows := pages(func() int64 {
				rows, err := db.Query(`SELECT p.pid, n.objID, n.distance FROM Probes p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n`)
				if err != nil {
					t.Fatal(err)
				}
				return int64(rows.Len())
			})
			return map[string]int64{"pages": read, "rows": rows}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.op(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			counts := tc.op(t)
			runtime.ReadMemStats(&after)
			if !reflect.DeepEqual(counts, tc.counts) {
				t.Errorf("counts %v, want %v", counts, tc.counts)
			}
			if raceEnabled {
				return
			}
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"allocs", after.Mallocs - before.Mallocs, tc.allocs},
				{"bytes", after.TotalAlloc - before.TotalAlloc, tc.bytes},
			} {
				if ceiling := uint64(float64(c.want) * (1 + allocMargin)); c.got > ceiling {
					t.Errorf("%s %d, ceiling %d (%d + %.0f%%)", c.what, c.got, ceiling, c.want, allocMargin*100)
				}
			}
		})
	}
}
