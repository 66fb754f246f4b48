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

// TestColumnarSweepMatchesRowSweep pins the tentpole equivalence: the
// columnar sweep must deliver the row sweep's exact global callback
// sequence over an InstallZoneTable B+tree — same hits, same values, same
// order — over the RA-seam fixture (split windows) and a realistic survey
// patch. The row kernel over the column-primary table's segment cursors
// must match too.
func TestColumnarSweepMatchesRowSweep(t *testing.T) {
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
				ps = append(ps, Probe{Ra: 12, Dec: 1, R: -1}) // matches nothing
				return ps
			}(),
		},
		{
			name: "survey", height: astro.ZoneHeightDeg,
			gals: func() []sky.Galaxy {
				cat, err := sky.Generate(sky.GenConfig{
					Region: astro.MustBox(195.0, 195.5, 2.4, 2.9),
					Seed:   11,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cat.Galaxies
			}(),
			probes: func() []Probe {
				rng := rand.New(rand.NewSource(13))
				ps := make([]Probe, 90)
				for i := range ps {
					ps[i] = Probe{
						Ra:  195.0 + rng.Float64()*0.5,
						Dec: 2.4 + rng.Float64()*0.5,
						R:   0.02 + rng.Float64()*0.15,
					}
				}
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
			rowT, err := InstallZoneTable(db, "ZoneRows", tc.gals, tc.height)
			if err != nil {
				t.Fatal(err)
			}
			ct := zt.Columnar()
			if ct == nil {
				t.Fatal("InstallZoneTableColumnar attached no segments")
			}
			if ct.NumRows() != rowT.NumRows() || zt.NumRows() != rowT.NumRows() {
				t.Fatalf("segments hold %d rows (table says %d), row table %d", ct.NumRows(), zt.NumRows(), rowT.NumRows())
			}
			sweep := func(src Source) []seqCall {
				var calls []seqCall
				if err := Sweep(context.Background(), src, tc.probes, SweepOptions{Workers: 1}, func(pi int, zr ZoneRow) {
					calls = append(calls, seqCall{probe: pi, row: zr})
				}); err != nil {
					t.Fatal(err)
				}
				return calls
			}
			want := sweep(Rows(rowT, tc.height))
			if len(want) == 0 {
				t.Fatal("fixture matches nothing")
			}
			if got := sweep(Columnar(ct, tc.height)); !reflect.DeepEqual(got, want) {
				t.Fatalf("columnar sweep emitted %d calls, row sweep %d (or order/values differ)",
					len(got), len(want))
			}
			if got := sweep(Rows(zt, tc.height)); !reflect.DeepEqual(got, want) {
				t.Fatalf("row kernel over segment cursors emitted %d calls, over the B+tree %d (or order/values differ)",
					len(got), len(want))
			}
		})
	}
}

// TestParallelColumnarSweepMatchesSequential repeats the parallel
// determinism guarantee on the columnar path: every worker count, same
// global callback sequence, over the seam-straddling fixture. Run with
// -race (the CI race job does) to pin the absence of data races between
// workers sharing the segment directory and buffer pool.
func TestParallelColumnarSweepMatchesSequential(t *testing.T) {
	gals, height, probes := parallelFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	ct := zt.Columnar()

	var want []seqCall
	if err := Sweep(context.Background(), Columnar(ct, height), probes, SweepOptions{Workers: 1}, func(pi int, zr ZoneRow) {
		want = append(want, seqCall{probe: pi, row: zr})
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture matches nothing")
	}
	// Cross-check against the row sweep once more: the parallel columnar
	// path must agree with the sequential *row* path transitively.
	var rowWant []seqCall
	if err := Sweep(context.Background(), Rows(zt, height), probes, SweepOptions{Workers: 1}, func(pi int, zr ZoneRow) {
		rowWant = append(rowWant, seqCall{probe: pi, row: zr})
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, rowWant) {
		t.Fatal("columnar and row sequential sweeps disagree")
	}

	for _, workers := range []int{0, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				var got []seqCall
				err := Sweep(context.Background(), Columnar(ct, height), probes, SweepOptions{Workers: workers}, func(pi int, zr ZoneRow) {
					got = append(got, seqCall{probe: pi, row: zr})
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rep %d: parallel columnar sweep emitted %d calls, sequential %d (or order/values differ)",
						rep, len(got), len(want))
				}
			}
		})
	}
}

// TestColumnarSweepRejectsForeignTable pins the schema check: a colstore
// table that is not a zone projection is refused, not misread.
func TestColumnarSweepRejectsForeignTable(t *testing.T) {
	if err := Sweep(context.Background(), Columnar(nil, 0.25), []Probe{{Ra: 1, Dec: 1, R: 0.1}}, SweepOptions{Workers: 1}, func(int, ZoneRow) {}); err == nil {
		t.Error("nil columnar table accepted")
	}
}
