package zone

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

// sqlJoinFixture installs a zone table (column-primary, or a row table of
// the same rows with no segments), registers fGetNearbyObjEqZd, and loads
// the probes into a Probes table clustered on pid, so the SQL join's outer
// order is the probe slice's order.
func sqlJoinFixture(t *testing.T, gals []sky.Galaxy, height float64, probes []Probe, columnar bool) *sqldb.DB {
	t.Helper()
	db := sqldb.Open(0)
	var zt *sqldb.Table
	if columnar {
		var err error
		if zt, err = InstallZoneTableColumnar(db, "Zone", gals, height); err != nil {
			t.Fatal(err)
		}
	} else {
		zt = rowZoneTable(t, db, "Zone", gals, height)
	}
	RegisterNearbyTVF(db, zt, height)
	if _, err := db.Exec("CREATE TABLE Probes (pid bigint PRIMARY KEY, ra float, dec float, r float)"); err != nil {
		t.Fatal(err)
	}
	pt, _ := db.Table("Probes")
	for i, p := range probes {
		err := pt.Insert([]sqldb.Value{
			sqldb.Int(int64(i)), sqldb.Float(p.Ra), sqldb.Float(p.Dec), sqldb.Float(p.R),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sweepOracle answers the probes with the Go sweep over a column-primary
// Zone of gals, checked against SearchTable and BruteForce
// (requireOracles), and returns the rows the SQL join must produce: per
// probe in pid order, per hit in the sweep's emission order, as (pid,
// objID, distance).
func sweepOracle(t *testing.T, gals []sky.Galaxy, height float64, probes []Probe) [][]sqldb.Value {
	t.Helper()
	zt, err := InstallZoneTableColumnar(sqldb.Open(0), "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := record(context.Background(), TableSource(zt, height), probes, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireOracles(t, zt, gals, height, probes, calls)
	hits := make([][][]sqldb.Value, len(probes))
	for _, c := range calls {
		hits[c.probe] = append(hits[c.probe], []sqldb.Value{
			sqldb.Int(int64(c.probe)), sqldb.Int(c.row.ObjID), sqldb.Float(c.row.Distance),
		})
	}
	var out [][]sqldb.Value
	for _, h := range hits {
		out = append(out, h...)
	}
	return out
}

// requireSameRows asserts bit-identical result sets (float equality is
// exact equality; the plans must agree bitwise, not approximately).
func requireSameRows(t *testing.T, label string, got *sqldb.Rows, want [][]sqldb.Value) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), len(want))
	}
	i := 0
	for got.Next() {
		g, w := got.Row(), want[i]
		if len(g) != len(w) {
			t.Fatalf("%s row %d: width %d, want %d", label, i, len(g), len(w))
		}
		for c := range g {
			if g[c] != w[c] {
				t.Fatalf("%s row %d col %d: %#v, want %#v", label, i, c, g[c], w[c])
			}
		}
		i++
	}
}

// TestSQLZoneJoinMatchesGoSweep is the planner's acceptance test: the
// paper's neighbour query — a probe table joined against
// fGetNearbyObjEqZd — planned as a ZoneSweepJoin must return rows
// bit-identical to zone.Sweep and to the naive per-row TVFApply plan,
// including probes straddling the RA 0°/360° seam. Over a row table of
// the same rows (columnar=false), which has no segments to sweep, the
// planner keeps TVFApply and the query still returns the sweep's rows.
func TestSQLZoneJoinMatchesGoSweep(t *testing.T) {
	const query = `SELECT p.pid, n.objID, n.distance FROM Probes p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n`
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
				return append(ps, Probe{Ra: 12, Dec: 1, R: -1}) // matches nothing
			}(),
		},
		{
			name: "survey", gals: testGalaxies(t, 31, 8000), height: astro.ZoneHeightDeg,
			probes: func() []Probe {
				rng := rand.New(rand.NewSource(41))
				ps := make([]Probe, 64)
				for i := range ps {
					ps[i] = Probe{
						Ra:  180.0 + rng.Float64(),
						Dec: -0.5 + rng.Float64(),
						R:   0.02 + rng.Float64()*0.12,
					}
				}
				return ps
			}(),
		},
	}
	for _, tc := range cases {
		for _, columnar := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/columnar=%v", tc.name, columnar), func(t *testing.T) {
				db := sqlJoinFixture(t, tc.gals, tc.height, tc.probes, columnar)
				want := sweepOracle(t, tc.gals, tc.height, tc.probes)
				if len(want) == 0 {
					t.Fatal("oracle found no neighbours; fixture is degenerate")
				}

				// The planned query must run the batched sweep over the
				// segments, or the per-row plan where there are none...
				plan, err := db.Explain(query)
				if err != nil {
					t.Fatal(err)
				}
				if columnar && (!strings.Contains(plan, "ZoneSweepJoin fGetNearbyObjEqZd(p.ra, p.dec, p.r)") ||
					!strings.Contains(plan, "ColumnarScan Zone")) {
					t.Fatalf("plan does not lower to a ZoneSweepJoin over the Zone segments:\n%s", plan)
				}
				if !columnar && (!strings.Contains(plan, "TVFApply fGetNearbyObjEqZd") || strings.Contains(plan, "ZoneSweepJoin")) {
					t.Fatalf("plan over a row table without segments is not TVFApply:\n%s", plan)
				}

				// ...and return the Go sweep's exact rows.
				rows, err := db.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, "planned SQL", rows, want)

				// The naive per-row plan (TVFApply -> SearchTable per probe)
				// must agree bitwise with both.
				db.SetPlannerKnobs(sqldb.PlannerKnobs{NoZoneSweepJoin: true})
				naivePlan, err := db.Explain(query)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(naivePlan, "TVFApply fGetNearbyObjEqZd") || strings.Contains(naivePlan, "ZoneSweepJoin") {
					t.Fatalf("NoZoneSweepJoin knob did not restore the per-row plan:\n%s", naivePlan)
				}
				naive, err := db.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, "naive SQL", naive, want)
				if !columnar {
					return
				}

				// A SQL write drops a column-primary Zone's segments; the
				// planner must then keep the per-row plan, which still
				// answers. The new row lies far from every probe.
				db.SetPlannerKnobs(sqldb.PlannerKnobs{})
				ins := fmt.Sprintf("INSERT INTO Zone VALUES (%d, -1, 90, 80, 0, 0, 1, 18, 1, 0.4)", int64(math.Floor(170/tc.height)))
				if _, err := db.Exec(ins); err != nil {
					t.Fatal(err)
				}
				if plan, err = db.Explain(query); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, "TVFApply fGetNearbyObjEqZd") || strings.Contains(plan, "ZoneSweepJoin") {
					t.Fatalf("plan after a write dropped the segments is not TVFApply:\n%s", plan)
				}
				if rows, err = db.Query(query); err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, "SQL after a write", rows, want)
			})
		}
	}
}

// TestSQLZoneJoinResidualAndProjection pins two planner details of the
// neighbour shape: an INNER JOIN's ON clause applies as a residual filter
// over the batched join's output, and EXPLAIN ANALYZE reports actual row
// counts on the sweep operator.
func TestSQLZoneJoinResidualAndProjection(t *testing.T) {
	gals := testGalaxies(t, 37, 4000)
	probes := []Probe{
		{Ra: 180.2, Dec: 0.1, R: 0.1},
		{Ra: 180.7, Dec: -0.2, R: 0.1},
	}
	db := sqlJoinFixture(t, gals, astro.ZoneHeightDeg, probes, true)
	want := sweepOracle(t, gals, astro.ZoneHeightDeg, probes)
	var filtered [][]sqldb.Value
	for _, r := range want {
		if r[2].F < 0.05 {
			filtered = append(filtered, r)
		}
	}
	if len(filtered) == 0 || len(filtered) == len(want) {
		t.Fatalf("fixture does not exercise the residual (kept %d of %d)", len(filtered), len(want))
	}
	const query = `SELECT p.pid, n.objID, n.distance FROM Probes p JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n ON n.distance < 0.05`
	rows, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "residual join", rows, filtered)

	analyzed, err := db.Explain("EXPLAIN ANALYZE " + query)
	if err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("actual %d rows", len(filtered))
	if !strings.Contains(analyzed, "ZoneSweepJoin") || !strings.Contains(analyzed, wantLine) {
		t.Fatalf("EXPLAIN ANALYZE missing sweep actuals (%s):\n%s", wantLine, analyzed)
	}
}
