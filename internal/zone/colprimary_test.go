package zone

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

// poleGalaxies is a field hugging the north pole, where the ra windows
// widen to the whole circle, plus a high-declination patch.
func poleGalaxies() []sky.Galaxy {
	rng := rand.New(rand.NewSource(5))
	var gals []sky.Galaxy
	for i := 0; i < 400; i++ {
		dec := 89.5 + rng.Float64()*0.5
		if i%2 == 0 {
			dec = 84 + rng.Float64()*2
		}
		gals = append(gals, sky.Galaxy{
			ObjID: int64(i + 1), Ra: rng.Float64() * 360, Dec: dec,
			I: 18 + rng.Float64(), Gr: 1, Ri: 0.4,
		})
	}
	return gals
}

// TestColumnPrimaryZoneMatchesRowTable pins the column-primary Zone table
// against a row table of the same rows (rowZoneTable) and the
// brute-force oracle: the per-probe
// SearchTable and the scalar fGetNearbyObjEqZd TVF return the same rows in
// the same order over the RA seam and the pole.
func TestColumnPrimaryZoneMatchesRowTable(t *testing.T) {
	cases := []struct {
		name   string
		gals   []sky.Galaxy
		height float64
		probes [][3]float64
	}{
		{"seam", seamGalaxies(), 0.25, seamProbes()},
		{"pole", poleGalaxies(), astro.ZoneHeightDeg, [][3]float64{
			{0, 90, 0.3}, {120, 89.8, 0.4}, {300, 89.95, 0.1}, {10, 85, 0.5}, {200, 84.5, 1.2},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rowDB, colDB := sqldb.Open(0), sqldb.Open(0)
			rowT := rowZoneTable(t, rowDB, "Zone", tc.gals, tc.height)
			colT, err := InstallZoneTableColumnar(colDB, "Zone", tc.gals, tc.height)
			if err != nil {
				t.Fatal(err)
			}
			RegisterNearbyTVF(rowDB, rowT, tc.height)
			RegisterNearbyTVF(colDB, colT, tc.height)
			search := func(tbl *sqldb.Table, p [3]float64) []ZoneRow {
				var out []ZoneRow
				if err := SearchTable(tbl, tc.height, p[0], p[1], p[2], func(zr ZoneRow) { out = append(out, zr) }); err != nil {
					t.Fatal(err)
				}
				return out
			}
			tvf := func(db *sqldb.DB, p [3]float64) [][2]float64 {
				rows, err := db.Query(fmt.Sprintf("SELECT * FROM fGetNearbyObjEqZd(%v, %v, %v)", p[0], p[1], p[2]))
				if err != nil {
					t.Fatal(err)
				}
				var out [][2]float64
				for rows.Next() {
					out = append(out, [2]float64{float64(rows.Row()[0].I), rows.Row()[1].F})
				}
				return out
			}
			total := 0
			for _, p := range tc.probes {
				want := search(rowT, p)
				if got := search(colT, p); !reflect.DeepEqual(got, want) {
					t.Errorf("probe %v: SearchTable found %d rows on the column-primary table, %d on the row table (or order/values differ)",
						p, len(got), len(want))
				}
				if got, want := tvf(colDB, p), tvf(rowDB, p); !reflect.DeepEqual(got, want) {
					t.Errorf("probe %v: TVF returned %d rows on the column-primary table, %d on the row table", p, len(got), len(want))
				}
				var ids, oracle []int64
				for _, zr := range want {
					ids = append(ids, zr.ObjID)
				}
				for _, n := range BruteForce(tc.gals, p[0], p[1], p[2]) {
					oracle = append(oracle, n.Entry.ObjID)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
				if !reflect.DeepEqual(ids, oracle) {
					t.Errorf("probe %v: table search found %d neighbours, brute force %d", p, len(ids), len(oracle))
				}
				total += len(want)
			}
			if total == 0 {
				t.Fatal("fixture matches nothing")
			}
		})
	}
}

// TestReinstallReclaimsSegments pins segment-page reclamation across
// spZone re-runs on a live DB: each re-install retires the previous
// table's segment pages, and with no reader live they free at once, so
// the store stops growing by a table per run.
func TestReinstallReclaimsSegments(t *testing.T) {
	db := sqldb.Open(0)
	gals := seamGalaxies()
	// Thin zones: a few rows per segment, so segment pages far outnumber
	// what a row tree of the same rows would take.
	const height = 0.05
	var prevSegs int64
	for round := 0; round < 4; round++ {
		before := db.Reclaimer().Stats()
		zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
		if err != nil {
			t.Fatal(err)
		}
		after := db.Reclaimer().Stats()
		if freed := after.Freed - before.Freed; freed < prevSegs {
			t.Errorf("round %d: freed %d pages, want the previous table's %d segment pages", round, freed, prevSegs)
		}
		if n := db.Reclaimer().Pending(); n != 0 {
			t.Errorf("round %d: %d pages pending with no reader live", round, n)
		}
		prevSegs = int64(len(zt.Columnar().Segments()))
	}
}
