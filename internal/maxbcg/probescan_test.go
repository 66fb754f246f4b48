package maxbcg

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/astro"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// TestCandidateScanReadsOnlyZone pins where fBCGCandidate's probes come
// from: Zone's segments, never Galaxy. SpZone runs, Galaxy is truncated,
// and the rest of the pipeline must still produce exactly the candidates,
// clusters and members of an untruncated run, at one worker and at four.
// CI runs it with the candidate pool suite under -race.
func TestCandidateScanReadsOnlyZone(t *testing.T) {
	cat := batchEquivCatalog(t)
	target := astro.MustBox(195.4, 196.0, 2.4, 2.8)
	area := target.Expand(DefaultParams().BufferDeg)
	run := func(workers int, truncate bool) *Result {
		t.Helper()
		f := importedFinder(t, cat, workers)
		if err := f.SpZone(); err != nil {
			t.Fatal(err)
		}
		if truncate {
			if err := f.galaxyT.Truncate(); err != nil {
				t.Fatal(err)
			}
			if n := f.galaxyT.NumRows(); n != 0 {
				t.Fatalf("Galaxy holds %d rows after Truncate", n)
			}
		}
		if _, err := f.MakeCandidates(area); err != nil {
			t.Fatal(err)
		}
		if _, err := f.MakeClusters(target); err != nil {
			t.Fatal(err)
		}
		if _, err := f.MakeMembers(); err != nil {
			t.Fatal(err)
		}
		res, err := f.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1, false)
	if len(want.Candidates) == 0 || len(want.Clusters) == 0 || len(want.Members) == 0 {
		t.Fatalf("degenerate fixture: %s", want.Summary())
	}
	for _, workers := range []int{1, 4} {
		if got := run(workers, true); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: with Galaxy truncated after SpZone the run gives %s, want %s",
				workers, got.Summary(), want.Summary())
		}
	}
}

// TestCandidateScanAreaEdges pins the scan's segment skipping against the
// in-memory Finder. The area's four bounds are candidates' own
// coordinates: its ra bounds are a candidate that ends its Zone segment
// (the segment's MaxSort is MinRa) and one that starts its segment
// (MinSort is MaxRa), its dec bounds the lowest and highest candidates
// between them, so a skip test one ulp too eager drops a candidate. Other
// segments straddle both ra bounds, so their rows pass area.Contains one
// by one. With the sweeps answered elsewhere (a Remote stub), the scan's
// own page reads are exactly the segments the directory cannot rule out.
func TestCandidateScanAreaEdges(t *testing.T) {
	cat := batchEquivCatalog(t)
	// Zones a few arcminutes high hold several segments each, so segment
	// bounds fall inside the survey.
	const height = 0.05
	p := DefaultParams()
	mem, err := NewFinder(cat, p, height)
	if err != nil {
		t.Fatal(err)
	}
	all, err := mem.FindCandidates(cat.Region)
	if err != nil {
		t.Fatal(err)
	}
	isCand := make(map[int64]Candidate, len(all))
	for _, c := range all {
		isCand[c.ObjID] = c
	}
	f, err := NewDBFinder(sqldb.Open(0), p, cat.Kcorr, height)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ImportGalaxies(cat, cat.Region); err != nil {
		t.Fatal(err)
	}
	if err := f.SpZone(); err != nil {
		t.Fatal(err)
	}
	ct := f.zoneT.Columnar()
	segs := ct.Segments()
	sc := ct.NewScanner()
	var firsts, lasts []Candidate // candidates opening / closing a segment
	for _, m := range segs {
		if err := sc.Load(m); err != nil {
			t.Fatal(err)
		}
		ids := sc.Ints(zoneObjID)
		if c, ok := isCand[ids[0]]; ok {
			firsts = append(firsts, c)
		}
		if c, ok := isCand[ids[len(ids)-1]]; ok {
			lasts = append(lasts, c)
		}
	}
	// The widest ra span from a segment-closing to a segment-opening
	// candidate.
	var west, east Candidate
	for _, a := range lasts {
		for _, b := range firsts {
			if b.Ra-a.Ra > east.Ra-west.Ra {
				west, east = a, b
			}
		}
	}
	if east.Ra-west.Ra < 0.3 {
		t.Fatalf("fixture: no segment-closing candidate lies 0.3° west of a segment-opening one (%d closing, %d opening)",
			len(lasts), len(firsts))
	}
	south, north := west, west
	for _, c := range all {
		if c.Ra >= west.Ra && c.Ra <= east.Ra {
			if c.Dec < south.Dec {
				south = c
			}
			if c.Dec > north.Dec {
				north = c
			}
		}
	}
	area := astro.Box{MinRa: west.Ra, MaxRa: east.Ra, MinDec: south.Dec, MaxDec: north.Dec}

	minZone, maxZone := int64(astro.ZoneID(area.MinDec, height)), int64(astro.ZoneID(area.MaxDec, height))
	var fetched, straddleWest, straddleEast int64
	for _, m := range segs {
		if m.Group < minZone || m.Group > maxZone || m.MaxSort < area.MinRa || m.MinSort > area.MaxRa {
			continue
		}
		fetched++
		if m.MinSort < area.MinRa && area.MinRa < m.MaxSort {
			straddleWest++
		}
		if m.MinSort < area.MaxRa && area.MaxRa < m.MaxSort {
			straddleEast++
		}
	}
	if straddleWest == 0 || straddleEast == 0 || int(fetched) == len(segs) {
		t.Fatalf("fixture: %d segments straddle MinRa, %d MaxRa, and the scan fetches %d of %d",
			straddleWest, straddleEast, fetched, len(segs))
	}

	want, err := mem.FindCandidates(area)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.MakeCandidates(area); err != nil {
		t.Fatal(err)
	}
	got, err := f.readCandidates(f.candT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("area %v: DBFinder stages %d candidates, the Finder %d", area, len(got), len(want))
	}
	found := make(map[int64]bool, len(got))
	for _, c := range got {
		found[c.ObjID] = true
	}
	for name, c := range map[string]Candidate{"MinRa": west, "MaxRa": east, "MinDec": south, "MaxDec": north} {
		if !found[c.ObjID] {
			t.Errorf("the candidate on %s (objid %d at %g, %g) is missing", name, c.ObjID, c.Ra, c.Dec)
		}
	}

	f.Remote = &failingSweeper{}
	pool := f.DB.Pool()
	before := pool.Stats()
	if _, err := f.stageCandidates(area); err != nil {
		t.Fatal(err)
	}
	if reads := pool.Stats().Sub(before).Total(); reads != fetched {
		t.Errorf("the scan read %d pages, want the %d segments that can hold rows in area", reads, fetched)
	}
}

// TestNearbyTVFOverPipelineZone pins SQL over the pipeline's Zone, which
// carries the error tail: fGetNearbyObjEqZd, per call and joined against
// a probe table (the batched sweep), returns exactly the rows it returns
// over a ten-column Zone of the same galaxies.
func TestNearbyTVFOverPipelineZone(t *testing.T) {
	cat := batchEquivCatalog(t)
	f := importedFinder(t, cat, 2)
	if err := f.SpZone(); err != nil {
		t.Fatal(err)
	}
	gals, err := f.readGalaxies()
	if err != nil {
		t.Fatal(err)
	}
	plain := sqldb.Open(0)
	zt, err := zone.InstallZoneTableColumnar(plain, "Zone", gals, f.ZoneHeight)
	if err != nil {
		t.Fatal(err)
	}
	zone.RegisterNearbyTVF(plain, zt, f.ZoneHeight)
	for _, db := range []*sqldb.DB{f.DB, plain} {
		if _, err := db.Exec("CREATE TABLE Probes (pid bigint PRIMARY KEY, ra float, dec float, r float)"); err != nil {
			t.Fatal(err)
		}
		pt, _ := db.Table("Probes")
		if err := pt.BulkInsertFunc(40, func(i int) []sqldb.Value {
			g := &gals[i*len(gals)/40]
			return []sqldb.Value{sqldb.Int(int64(i)), sqldb.Float(g.Ra), sqldb.Float(g.Dec), sqldb.Float(0.02)}
		}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"SELECT objID, distance FROM fGetNearbyObjEqZd(195.7, 2.6, 0.1)",
		"SELECT p.pid, n.objID, n.distance FROM Probes p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n",
	}
	if plan, err := f.DB.Explain(queries[1]); err != nil || !strings.Contains(plan, "ZoneSweepJoin") {
		t.Fatalf("the join plans as %q (err %v), want a ZoneSweepJoin", plan, err)
	}
	for _, q := range queries {
		got, err := f.DB.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: fixture returns no rows", q)
		}
		if !reflect.DeepEqual(got.All(), want.All()) {
			t.Errorf("%s: %d rows over the pipeline's Zone, %d over a ten-column Zone", q, got.Len(), want.Len())
		}
	}
}
