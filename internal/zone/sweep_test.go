package zone

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// sweepFixture builds a seam-straddling catalog and probe set sized to
// spread across many zones and both sides of the RA wrap, plus two exact
// edges of the window and chord tests.
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
	// Two edges the random draws never reach: a zone whose only row sits
	// at ra 0, under a probe whose window there starts exactly at 0 (the
	// seam), and a zero radius centred on a row, which matches nothing,
	// not even that row.
	gals = append(gals, sky.Galaxy{ObjID: 1000 + n, Ra: 0, Dec: 2.5, I: 1, Gr: 0.5, Ri: 0.5})
	probes = append(probes, Probe{Ra: 359.99, Dec: 2.5, R: 0.05}, Probe{Ra: gals[0].Ra, Dec: gals[0].Dec, R: 0})
	return gals, astro.ZoneHeightDeg, probes
}

// sameZoneRow compares two hits bit for bit: every float by its bits, so
// -0 and +0 differ and a NaN equals itself.
func sameZoneRow(a, b ZoneRow) bool {
	fa := [6]float64{a.Ra, a.Dec, a.Distance, a.I, a.Gr, a.Ri}
	fb := [6]float64{b.Ra, b.Dec, b.Distance, b.I, b.Gr, b.Ri}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.ObjID == b.ObjID
}

// searchTableRows answers every probe with SearchTable over zt: the
// per-row plan, whose range scans find their rows by clustered key rather
// than by the sweep's zone windows and directory skips. Over a
// column-primary table both decode the same colstore pages; over a row
// table (rowZoneTable) the rows come from B+tree leaves instead. It is
// the reference a sweep's calls must equal, probe by probe.
func searchTableRows(t testing.TB, zt *sqldb.Table, height float64, probes []Probe) [][]ZoneRow {
	t.Helper()
	out := make([][]ZoneRow, len(probes))
	for pi, p := range probes {
		if err := SearchTable(zt, height, p.Ra, p.Dec, p.R, func(zr ZoneRow) {
			out[pi] = append(out[pi], zr)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// requireOracles fails unless calls, one unwindowed sweep's call sequence
// over the Zone table zt of gals, match the oracles: split by probe, they
// are SearchTable's rows over zt and over a row table of the same rows
// (rowZoneTable, whose pages share no decode with the segments) in
// SearchTable's order, bit for bit in every field, and each probe's
// (objid, distance) set is BruteForce's over gals (nothing for a negative
// radius). It also fails on a sweep that finds nothing, so a broken
// fixture cannot pass.
func requireOracles(t testing.TB, zt *sqldb.Table, gals []sky.Galaxy, height float64, probes []Probe, calls []seqCall) {
	t.Helper()
	if len(calls) == 0 {
		t.Fatal("fixture matches nothing")
	}
	got := make([][]ZoneRow, len(probes))
	for _, c := range calls {
		got[c.probe] = append(got[c.probe], c.row)
	}
	want := searchTableRows(t, zt, height, probes)
	rowWant := searchTableRows(t, rowZoneTable(t, sqldb.Open(0), "ZoneRows", gals, height), height, probes)
	type hit struct {
		objID int64
		dist  uint64
	}
	for pi, p := range probes {
		for _, ref := range []struct {
			name string
			rows []ZoneRow
		}{{"SearchTable", want[pi]}, {"SearchTable over a row table", rowWant[pi]}} {
			if len(got[pi]) != len(ref.rows) {
				t.Fatalf("probe %d: sweep emitted %d rows, %s %d", pi, len(got[pi]), ref.name, len(ref.rows))
			}
			for i := range got[pi] {
				if !sameZoneRow(got[pi][i], ref.rows[i]) {
					t.Fatalf("probe %d row %d: sweep %+v, %s %+v", pi, i, got[pi][i], ref.name, ref.rows[i])
				}
			}
		}
		var swept, brute []hit
		for _, zr := range got[pi] {
			swept = append(swept, hit{zr.ObjID, math.Float64bits(zr.Distance)})
		}
		if p.R >= 0 {
			for _, n := range BruteForce(gals, p.Ra, p.Dec, p.R) {
				brute = append(brute, hit{n.Entry.ObjID, math.Float64bits(n.Distance)})
			}
		}
		byID := func(hs []hit) {
			slices.SortFunc(hs, func(a, b hit) int {
				if c := cmp.Compare(a.objID, b.objID); c != 0 {
					return c
				}
				return cmp.Compare(a.dist, b.dist)
			})
		}
		byID(swept)
		byID(brute)
		if !slices.Equal(swept, brute) {
			t.Fatalf("probe %d %+v: sweep found %d neighbours, BruteForce %d (or their distances differ)", pi, p, len(swept), len(brute))
		}
	}
}

// TestSweepEquivalentToSequentialBaselines pins zone.Sweep to its two
// oracles — per-probe SearchTable over the same column-primary table, and
// BruteForce — and every source at every Workers setting to that one
// call sequence: the setting is ignored, and TableSource and Columnar
// run the same kernel over the same segments.
func TestSweepEquivalentToSequentialBaselines(t *testing.T) {
	gals, height, probes := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	ct := zt.Columnar()
	if ct == nil {
		t.Fatal("no column segments")
	}
	run := func(src Source, workers int) []seqCall {
		calls, err := record(context.Background(), src, probes, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	baseline := run(TableSource(zt, height), 1)
	requireOracles(t, zt, gals, height, probes, baseline)
	for _, src := range []struct {
		name string
		s    Source
	}{{"Columnar", Columnar(ct, height)}, {"TableSource", TableSource(zt, height)}} {
		for _, workers := range []int{1, 2, 4, 8} {
			if got := run(src.s, workers); !reflect.DeepEqual(got, baseline) {
				t.Errorf("%s workers=%d: call sequence differs from the checked sweep", src.name, workers)
			}
		}
	}
}

// TestSweepIOOpsIndependentOfWorkers pins that the pool traffic of a
// sweep is a pure function of the probe set and the segments, not of the
// Workers setting or of which source reaches the segments, so Table 1's
// I/O column stays exact. The "Rows" lane sweeps the table's rows
// through TableSource.
func TestSweepIOOpsIndependentOfWorkers(t *testing.T) {
	gals, height, probes := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	pool := db.Pool()

	var first storage.Stats
	for _, src := range []struct {
		name string
		s    Source
	}{{"Rows", TableSource(zt, height)}, {"Columnar", Columnar(zt.Columnar(), height)}} {
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
			if first == (storage.Stats{}) {
				first = want
			} else if want != first {
				t.Fatalf("io %+v, the first source's %+v", want, first)
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

// TestSweepEmptyAndNilSources pins the entry point's edge contract: no
// probes call nothing, a nil table is refused, and so is a table whose
// rows a write moved from the segments into a row tree.
func TestSweepEmptyAndNilSources(t *testing.T) {
	gals, height, _ := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	if err := Sweep(context.Background(), TableSource(zt, height), nil, SweepOptions{}, func(int, ZoneRow) {
		t.Error("no probes, but fn called")
	}); err != nil {
		t.Fatal(err)
	}
	if err := Sweep(context.Background(), TableSource(nil, height), []Probe{{R: 1}}, SweepOptions{}, func(int, ZoneRow) {}); err == nil {
		t.Error("nil table accepted")
	}
	rowT := rowZoneTable(t, db, "ZoneRows", gals, height)
	err = Sweep(context.Background(), TableSource(rowT, height), []Probe{{Ra: gals[0].Ra, Dec: gals[0].Dec, R: 0.1}},
		SweepOptions{}, func(int, ZoneRow) { t.Error("a sweep over a row tree emitted a row") })
	if err == nil || !strings.Contains(err.Error(), "sweep of ZoneRows") {
		t.Errorf("TableSource over a table without segments: err = %v, want a refusal naming ZoneRows", err)
	}
}
