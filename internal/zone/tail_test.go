package zone

import (
	"context"
	"slices"
	"testing"

	"repro/internal/sqldb"
)

// TestErrorTailReaders pins how each reader treats a Zone carrying
// ErrorTail: its rows are Zone's rows followed by the galaxies' measured
// errors, a windowed Sweep over it emits exactly the calls it emits over
// the ten-column Zone, at every Workers setting and through both
// sources.
func TestErrorTailReaders(t *testing.T) {
	gals, height, probes := sweepFixture(t)
	for i := range gals {
		gals[i].SigmaGr, gals[i].SigmaRi = float64(i)/7, -float64(i)/3
	}
	plainDB, tailDB := sqldb.Open(0), sqldb.Open(0)
	plain, err := InstallZoneTableColumnar(plainDB, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	tailed, err := InstallZoneTableColumnar(tailDB, "Zone", gals, height, ErrorTail)
	if err != nil {
		t.Fatal(err)
	}
	if want := ZoneTableColumns(ErrorTail); !slices.Equal(tailed.Cols, want) || len(want) != colRi+3 {
		t.Fatalf("tailed Zone has columns %v, want Zone's ten then sigma_gr, sigma_ri", tailed.Cols)
	}

	// Row for row, the tail follows Zone's values, and holds the errors of
	// the galaxy the row's objid names.
	byID := make(map[int64]int, len(gals))
	for i := range gals {
		byID[gals[i].ObjID] = i
	}
	pc, err := plain.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	tc, err := tailed.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	n := 0
	for pc.Next() {
		if !tc.Next() {
			t.Fatalf("tailed Zone ends after %d rows, plain Zone goes on", n)
		}
		pr, tr := pc.Row(), tc.Row()
		g := &gals[byID[pr[colObjID].I]]
		want := append(slices.Clone(pr), sqldb.Float(g.SigmaGr), sqldb.Float(g.SigmaRi))
		if !sameValues(tr, want) {
			t.Fatalf("tailed row %d is %v, want %v", n, tr, want)
		}
		n++
	}
	if tc.Next() || n != len(gals) {
		t.Fatalf("plain Zone scanned %d rows of %d, tailed Zone has more", n, len(gals))
	}
	if err := pc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := tc.Err(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	wins := testWindows(len(probes))
	want, err := record(ctx, TableSource(plain, height), probes, SweepOptions{Workers: 1, Windows: wins})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture: the windowed sweep finds nothing")
	}
	for _, workers := range []int{1, 3} {
		for _, src := range []Source{TableSource(tailed, height), Columnar(tailed.Columnar(), height)} {
			got, err := record(ctx, src, probes, SweepOptions{Workers: workers, Windows: wins})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			requirePrefix(t, got, want, true)
		}
	}
}
