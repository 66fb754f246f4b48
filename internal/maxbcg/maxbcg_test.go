package maxbcg

import (
	"math"
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

// testCatalog generates a deterministic 2.5 x 2.5 deg catalog (the paper's
// MySkyServerDr1 coverage) centred on (195.163, 2.5).
func testCatalog(t testing.TB, seed int64) *sky.Catalog {
	t.Helper()
	cat, err := sky.Generate(sky.GenConfig{
		Region: astro.MustBox(193.9, 196.4, 1.25, 3.75),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// testTarget is a 0.5 deg-buffered box inside the testCatalog region, the
// shape of the paper's "EXEC spMakeCandidates 194, 196, 1.5, 3.5".
func testTarget() astro.Box { return astro.MustBox(194.9, 195.4, 2.25, 2.75) }

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{},
		{GrPopSigma: -1, RiPopSigma: 0.06, IPopSigma: 0.57, Chi2Cutoff: 7, ZWindow: 0.05},
		{GrPopSigma: 0.05, RiPopSigma: 0.06, IPopSigma: 0.57, Chi2Cutoff: 0, ZWindow: 0.05},
		{GrPopSigma: 0.05, RiPopSigma: 0.06, IPopSigma: 0.57, Chi2Cutoff: 7, BufferDeg: 9, ZWindow: 0.05},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestChiSquareFilterOnAndOffRidge(t *testing.T) {
	p := DefaultParams()
	kcorr := sky.MustNewKcorr(1000, 0.5)
	k := kcorr.Lookup(0.15)

	onRidge := &sky.Galaxy{ObjID: 1, I: k.I, Gr: k.Gr, Ri: k.Ri}
	onRidge.SigmaGr = sky.SigmaGrFor(onRidge.I)
	onRidge.SigmaRi = sky.SigmaRiFor(onRidge.I)
	rows := chiSquareTable(p, onRidge, kcorr, nil)
	if len(rows) == 0 {
		t.Fatal("galaxy exactly on the ridge fails the filter")
	}
	best := math.Inf(1)
	bestZid := 0
	for _, r := range rows {
		if r.chisq < best {
			best, bestZid = r.chisq, r.zid
		}
	}
	if zBest := kcorr.Rows[bestZid-1].Z; math.Abs(zBest-0.15) > 0.01 {
		t.Errorf("best-fit redshift %g, want ~0.15", zBest)
	}

	offRidge := &sky.Galaxy{ObjID: 2, I: k.I, Gr: k.Gr + 2.0, Ri: k.Ri - 1.5}
	offRidge.SigmaGr = sky.SigmaGrFor(offRidge.I)
	offRidge.SigmaRi = sky.SigmaRiFor(offRidge.I)
	if rows := chiSquareTable(p, offRidge, kcorr, nil); len(rows) != 0 {
		t.Errorf("galaxy far off the ridge passes the filter at %d redshifts", len(rows))
	}
}

func TestCandidateFractionCalibration(t *testing.T) {
	// Paper: "About 3% of the galaxies are candidates to be a BCG."
	cat := testCatalog(t, 1)
	f, err := NewFinder(cat, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	area := astro.MustBox(194.4, 195.9, 1.75, 3.25)
	cands, err := f.FindCandidates(area)
	if err != nil {
		t.Fatal(err)
	}
	inArea := 0
	for i := range cat.Galaxies {
		if area.Contains(cat.Galaxies[i].Ra, cat.Galaxies[i].Dec) {
			inArea++
		}
	}
	frac := float64(len(cands)) / float64(inArea)
	t.Logf("candidate fraction: %d / %d = %.2f%%", len(cands), inArea, frac*100)
	if frac < 0.005 || frac > 0.10 {
		t.Errorf("candidate fraction %.3f%% outside the plausible range around the paper's ~3%%", frac*100)
	}
}

func TestFinderRecoversInjectedClusters(t *testing.T) {
	cat := testCatalog(t, 2)
	f, err := NewFinder(cat, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	target := testTarget()
	res, err := f.Run(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters found in a field with injected clusters")
	}
	// Recall: every injected cluster in the target (rich enough to be
	// unambiguous) should have a found cluster within its radius and
	// redshift window.
	totalRich, recovered := 0, 0
	for _, tc := range cat.Truth {
		if !target.Contains(tc.Ra, tc.Dec) || tc.NGal < 8 {
			continue
		}
		totalRich++
		for _, c := range res.Clusters {
			if astro.Distance(tc.Ra, tc.Dec, c.Ra, c.Dec) < 0.1 && math.Abs(c.Z-tc.Z) < 0.06 {
				recovered++
				break
			}
		}
	}
	if totalRich == 0 {
		t.Skip("no rich injected clusters in the target")
	}
	recall := float64(recovered) / float64(totalRich)
	t.Logf("recall: %d / %d rich injected clusters", recovered, totalRich)
	if recall < 0.6 {
		t.Errorf("recall %.0f%% too low: the finder misses injected clusters", recall*100)
	}
	// Clusters are inside the target; candidates cover the buffered area.
	for _, c := range res.Clusters {
		if !target.Contains(c.Ra, c.Dec) {
			t.Errorf("cluster %d outside the target box", c.ObjID)
		}
	}
}

func TestClusterDensityMatchesPaper(t *testing.T) {
	// Paper: ~4.5 clusters per 0.25 deg² field (0.13% of galaxies are
	// BCGs). Our synthetic sky injects 4.5/field, so the found density
	// should be in that neighbourhood (projection effects allow slack).
	cat := testCatalog(t, 3)
	f, err := NewFinder(cat, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	target := astro.MustBox(194.6, 195.7, 1.95, 3.05)
	res, err := f.Run(target)
	if err != nil {
		t.Fatal(err)
	}
	perField := float64(len(res.Clusters)) / target.FlatArea() * 0.25
	t.Logf("clusters per 0.25 deg² field: %.2f", perField)
	if perField < 1.5 || perField > 12 {
		t.Errorf("cluster density %.2f per field implausible vs the paper's ~4.5", perField)
	}
}

func TestMembersWithinRadius(t *testing.T) {
	cat := testCatalog(t, 5)
	f, err := NewFinder(cat, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(testTarget())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) == 0 {
		t.Fatal("no member rows")
	}
	byID := make(map[int64]Candidate)
	for _, c := range res.Clusters {
		byID[c.ObjID] = c
	}
	counts := make(map[int64]int)
	for _, m := range res.Members {
		c, ok := byID[m.ClusterObjID]
		if !ok {
			t.Fatalf("member row references unknown cluster %d", m.ClusterObjID)
		}
		k := cat.Kcorr.Lookup(c.Z)
		maxR := k.Radius * sky.R200Mpc(float64(c.NGal))
		if m.Distance >= maxR+1e-9 {
			t.Errorf("member %d of cluster %d at %g deg exceeds r200 radius %g",
				m.GalaxyObjID, m.ClusterObjID, m.Distance, maxR)
		}
		counts[m.ClusterObjID]++
		if m.GalaxyObjID == m.ClusterObjID && m.Distance != 0 {
			t.Error("central galaxy must be at distance zero")
		}
	}
	for id := range byID {
		if counts[id] == 0 {
			t.Errorf("cluster %d has no member rows (centre row missing)", id)
		}
	}
}

func TestBCGBeatsItsMembers(t *testing.T) {
	// Within one injected cluster, the BCG should out-rank member
	// candidates in fIsCluster terms: exactly one cluster centre within
	// the cluster radius.
	cat := testCatalog(t, 7)
	f, err := NewFinder(cat, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	target := testTarget()
	res, err := f.Run(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cat.Truth {
		if !target.Contains(tc.Ra, tc.Dec) || tc.NGal < 10 {
			continue
		}
		n := 0
		for _, c := range res.Clusters {
			if astro.Distance(tc.Ra, tc.Dec, c.Ra, c.Dec) < tc.RadiusDeg*0.9 && math.Abs(c.Z-tc.Z) < 0.05 {
				n++
			}
		}
		if n > 2 {
			t.Errorf("injected cluster at (%g, %g) fragmented into %d centres", tc.Ra, tc.Dec, n)
		}
	}
}

func TestDBFinderMatchesInMemoryFinder(t *testing.T) {
	// The paper's §2.4 invariant, applied across implementations: the
	// DB-backed run must produce byte-identical candidate, cluster, and
	// member sets to the in-memory run.
	cat := testCatalog(t, 11)
	target := testTarget()

	mem, err := NewFinder(cat, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := mem.Run(target)
	if err != nil {
		t.Fatal(err)
	}

	db := sqldb.Open(4096)
	dbf, err := NewDBFinder(db, DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dbf.ImportGalaxies(cat, cat.Region); err != nil {
		t.Fatal(err)
	}
	dbRes, report, err := dbf.Run(target, true)
	if err != nil {
		t.Fatal(err)
	}

	if len(dbRes.Candidates) != len(memRes.Candidates) {
		t.Fatalf("candidates differ: db %d vs mem %d", len(dbRes.Candidates), len(memRes.Candidates))
	}
	for i := range dbRes.Candidates {
		a, b := dbRes.Candidates[i], memRes.Candidates[i]
		if a.ObjID != b.ObjID || a.NGal != b.NGal || math.Abs(a.Chi2-b.Chi2) > 1e-9 || a.Z != b.Z {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(dbRes.Clusters) != len(memRes.Clusters) {
		t.Fatalf("clusters differ: db %d vs mem %d", len(dbRes.Clusters), len(memRes.Clusters))
	}
	for i := range dbRes.Clusters {
		if dbRes.Clusters[i].ObjID != memRes.Clusters[i].ObjID {
			t.Fatalf("cluster %d differs", i)
		}
	}
	if len(dbRes.Members) != len(memRes.Members) {
		t.Fatalf("members differ: db %d vs mem %d", len(dbRes.Members), len(memRes.Members))
	}
	for i := range dbRes.Members {
		if dbRes.Members[i] != memRes.Members[i] {
			t.Fatalf("member row %d differs", i)
		}
	}

	// The report must cover the paper's three tasks with non-zero I/O.
	if len(report.Tasks) < 3 {
		t.Fatalf("task report has %d tasks", len(report.Tasks))
	}
	names := []string{"spZone", "fBCGCandidate", "fIsCluster"}
	for i, want := range names {
		if report.Tasks[i].Name != want {
			t.Errorf("task %d = %s, want %s", i, report.Tasks[i].Name, want)
		}
		if report.Tasks[i].IO == 0 {
			t.Errorf("task %s reports zero I/O", want)
		}
	}
	if report.Galaxies != int64(cat.Len()) {
		t.Errorf("report galaxies = %d, want %d", report.Galaxies, cat.Len())
	}
}

func TestBufferImprovesBorderAccuracy(t *testing.T) {
	// Figure 1's point: a small buffer truncates neighbourhoods at the
	// field border. Candidates computed with the paper's 0.5° buffer must
	// see >= the neighbours of a 0.1°-buffer run near the border.
	cat := testCatalog(t, 13)
	target := testTarget()

	wide := DefaultParams()
	narrow := DefaultParams()
	narrow.BufferDeg = 0.05

	fw, err := NewFinder(cat, wide, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := NewFinder(cat, narrow, 0)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := fw.FindCandidates(target.Expand(wide.BufferDeg))
	if err != nil {
		t.Fatal(err)
	}
	cn, err := fn.FindCandidates(target.Expand(narrow.BufferDeg))
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) <= len(cn) {
		t.Logf("wide buffer candidates %d, narrow %d", len(cw), len(cn))
	}
	// Candidates strictly inside the target should agree between runs
	// (the buffer only affects the border).
	inner := astro.MustBox(195.0, 195.3, 2.35, 2.65)
	var wIDs, nIDs []int64
	for _, c := range cw {
		if inner.Contains(c.Ra, c.Dec) {
			wIDs = append(wIDs, c.ObjID)
		}
	}
	for _, c := range cn {
		if inner.Contains(c.Ra, c.Dec) {
			nIDs = append(nIDs, c.ObjID)
		}
	}
	if len(wIDs) != len(nIDs) {
		t.Fatalf("inner candidates differ with buffer width: %d vs %d", len(wIDs), len(nIDs))
	}
	for i := range wIDs {
		if wIDs[i] != nIDs[i] {
			t.Fatalf("inner candidate %d differs", i)
		}
	}
}

func TestFinderValidation(t *testing.T) {
	cat := testCatalog(t, 17)
	if _, err := NewFinder(cat, Params{}, 0); err == nil {
		t.Error("zero params accepted")
	}
	noK := *cat
	noK.Kcorr = nil
	if _, err := NewFinder(&noK, DefaultParams(), 0); err == nil {
		t.Error("catalog without kcorr accepted")
	}
	db := sqldb.Open(64)
	if _, err := NewDBFinder(db, DefaultParams(), nil, 0); err == nil {
		t.Error("nil kcorr accepted by DBFinder")
	}
	dbf, err := NewDBFinder(db, DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dbf.MakeCandidates(testTarget()); err == nil {
		t.Error("MakeCandidates before SpZone accepted")
	}
	if _, err := dbf.MakeClusters(testTarget()); err == nil {
		t.Error("MakeClusters before MakeCandidates accepted")
	}
}
