package fed_test

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/astro"
	"repro/internal/cluster"
	"repro/internal/fed"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

type hit struct {
	p  int
	zr zone.ZoneRow
}

// localSweep is the centralised oracle: a zone.Sweep over one columnar
// zone table holding every region row, emitted as the exact (probe,
// row) sequence the federation must replay bit for bit.
func localSweep(t testing.TB, cat *sky.Catalog, region astro.Box, probes []zone.Probe) []hit {
	t.Helper()
	var gals []sky.Galaxy
	for _, g := range cat.Galaxies {
		if region.Contains(g.Ra, g.Dec) {
			gals = append(gals, g)
		}
	}
	db := sqldb.Open(0)
	zt, err := zone.InstallZoneTableColumnar(db, "Zone", gals, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	var out []hit
	err = zone.Sweep(context.Background(), zone.TableSource(zt, astro.ZoneHeightDeg), probes,
		zone.SweepOptions{Workers: 1}, func(pi int, zr zone.ZoneRow) {
			out = append(out, hit{p: pi, zr: zr})
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func federatedSweep(t testing.TB, c *fed.Coordinator, probes []zone.Probe) []hit {
	t.Helper()
	var out []hit
	err := c.Sweep(context.Background(), probes, func(pi int, zr zone.ZoneRow) {
		out = append(out, hit{p: pi, zr: zr})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requireSameHits(t testing.TB, got, want []hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("federated sweep returned %d hits, centralised %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs:\n  federated:   %+v\n  centralised: %+v", i, got[i], want[i])
		}
	}
}

// testProbes mixes real neighbourhoods, guaranteed misses, negative
// radii (the sweep contract: silently skipped), and probes whose radius
// crosses stripe boundaries.
func testProbes(region astro.Box, seed int64, n int) []zone.Probe {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]zone.Probe, 0, n+3)
	for i := 0; i < n; i++ {
		ps = append(ps, zone.Probe{
			Ra:  region.MinRa + rng.Float64()*(region.MaxRa-region.MinRa),
			Dec: region.MinDec + rng.Float64()*(region.MaxDec-region.MinDec),
			R:   0.02 + rng.Float64()*0.25,
		})
	}
	mid := (region.MinRa + region.MaxRa) / 2
	ps = append(ps,
		zone.Probe{Ra: mid, Dec: region.MinDec + 0.1, R: -1},                // negative radius: skipped
		zone.Probe{Ra: mid, Dec: region.MaxDec + 5, R: 0.05},                // far outside: no hits
		zone.Probe{Ra: mid, Dec: (region.MinDec + region.MaxDec) / 2, R: 0}, // zero radius
	)
	return ps
}

func fedTestTopo(region astro.Box) fed.Topology {
	// Cuts deliberately not aligned to zone boundaries: the buffer-zone
	// exchange has to do real work for the sweeps to agree.
	span := region.MaxDec - region.MinDec
	return fed.Topology{Region: region, Stripes: []fed.Stripe{
		{Name: "south", MinDec: region.MinDec, MaxDec: region.MinDec + 0.37*span},
		{Name: "mid", MinDec: region.MinDec + 0.37*span, MaxDec: region.MinDec + 0.63*span},
		{Name: "north", MinDec: region.MinDec + 0.63*span, MaxDec: region.MaxDec},
	}}
}

// TestFederatedSweepMatchesLocal is the tentpole acceptance test: the
// scatter-gathered sweep over three wire-connected stripe workers
// replays the centralised zone.Sweep hit sequence bit for bit.
func TestFederatedSweepMatchesLocal(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 7, 3000, 4)
	topo := fedTestTopo(region)
	c, _ := startFederation(t, cat, topo, fed.Options{})

	probes := testProbes(region, 11, 48)
	want := localSweep(t, cat, region, probes)
	if len(want) == 0 {
		t.Fatal("oracle produced no hits; test is vacuous")
	}
	got := federatedSweep(t, c, probes)
	requireSameHits(t, got, want)

	st := c.CoordStats()
	if st.Sweeps != 1 || st.Hits != int64(len(want)) {
		t.Errorf("coordinator stats: %+v, want 1 sweep with %d hits", st, len(want))
	}
	if st.ProbeBytesOut == 0 || st.HitBytesIn == 0 {
		t.Errorf("wire byte accounting missing: %+v", st)
	}
}

// TestFederatedSweepConcurrent runs overlapping sweeps through one
// coordinator; each must independently match the oracle.
func TestFederatedSweepConcurrent(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 9, 2000, 2)
	c, _ := startFederation(t, cat, fedTestTopo(region), fed.Options{})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			probes := testProbes(region, seed, 24)
			want := localSweep(t, cat, region, probes)
			got := federatedSweep(t, c, probes)
			requireSameHits(t, got, want)
		}(int64(100 + i))
	}
	wg.Wait()
}

// TestFederatedTVF checks the SQL surface: fGetNearbyObjEqZd backed by
// the coordinator returns the same rows as the local zone TVF, and the
// planner labels the access path as a federated sweep in EXPLAIN.
func TestFederatedTVF(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 13, 2000, 2)
	c, _ := startFederation(t, cat, fedTestTopo(region), fed.Options{})

	probes := testProbes(region, 17, 16)
	newProbeDB := func() *sqldb.DB {
		db := sqldb.Open(0)
		if _, err := db.Exec("CREATE TABLE Probes (pid bigint PRIMARY KEY, ra float, dec float, r float)"); err != nil {
			t.Fatal(err)
		}
		pt, _ := db.Table("Probes")
		if err := pt.BulkInsertFunc(len(probes), func(i int) []sqldb.Value {
			p := probes[i]
			return []sqldb.Value{sqldb.Int(int64(i)), sqldb.Float(p.Ra), sqldb.Float(p.Dec), sqldb.Float(p.R)}
		}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	const query = `SELECT p.pid, n.objID, n.distance FROM Probes p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n`

	// Local baseline: the zone package's own TVF over a full zone table.
	var gals []sky.Galaxy
	for _, g := range cat.Galaxies {
		if region.Contains(g.Ra, g.Dec) {
			gals = append(gals, g)
		}
	}
	ldb := newProbeDB()
	zt, err := zone.InstallZoneTableColumnar(ldb, "Zone", gals, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	zone.RegisterNearbyTVF(ldb, zt, astro.ZoneHeightDeg)
	wantRows, err := ldb.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]sqldb.Value
	for wantRows.Next() {
		want = append(want, append([]sqldb.Value(nil), wantRows.Row()...))
	}
	if len(want) == 0 {
		t.Fatal("local TVF returned no rows; test is vacuous")
	}

	// Federated: same query, no local zone table at all.
	fdb := newProbeDB()
	c.RegisterNearbyTVF(fdb)
	gotRows, err := fdb.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for gotRows.Next() {
		if i >= len(want) {
			t.Fatalf("federated TVF returned more than %d rows", len(want))
		}
		g := gotRows.Row()
		for col := range g {
			if g[col] != want[i][col] {
				t.Fatalf("row %d col %d: federated %#v, local %#v", i, col, g[col], want[i][col])
			}
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("federated TVF returned %d rows, local %d", i, len(want))
	}

	plan, err := fdb.Explain("EXPLAIN " + query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "FederatedSweep") {
		t.Fatalf("EXPLAIN does not surface the federated access path:\n%s", plan)
	}
	if !strings.Contains(plan, "ZoneSweepJoin") {
		t.Fatalf("federated TVF lost the batched join plan:\n%s", plan)
	}
}

// TestRunMaxBCGMatchesCluster runs the full MaxBCG pipeline through the
// federation and requires the exact result tables of a centralised
// single-node cluster.Run over the same catalog.
func TestRunMaxBCGMatchesCluster(t *testing.T) {
	survey := astro.MustBox(194, 196.3, 1.0, 3.4)
	cat := genCatalog(t, survey, 5, 2500, 6)
	target := astro.MustBox(194.4, 195.9, 1.4, 3.0)
	params := maxbcg.DefaultParams()

	central, err := cluster.Run(cat, target, cluster.Config{Nodes: 1, Params: params, IncludeMembers: true})
	if err != nil {
		t.Fatal(err)
	}
	want := central.Nodes[0].Result

	imp, err := fed.ImportBox(target, params.BufferDeg, cat.Region)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startFederation(t, cat, fedTestTopo(imp), fed.Options{})
	got, report, err := fed.RunMaxBCG(context.Background(), c, cat, target, fed.RunConfig{Params: params, IncludeMembers: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Clusters) == 0 || len(want.Members) == 0 {
		t.Fatal("centralised run found no clusters or no members; test is vacuous")
	}
	if !reflect.DeepEqual(got.Candidates, want.Candidates) {
		t.Errorf("candidate tables differ: federated %d rows, centralised %d",
			len(got.Candidates), len(want.Candidates))
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Errorf("cluster tables differ: federated %d rows, centralised %d",
			len(got.Clusters), len(want.Clusters))
	}
	if !reflect.DeepEqual(got.Members, want.Members) {
		t.Errorf("member tables differ: federated %d rows, centralised %d",
			len(got.Members), len(want.Members))
	}
	if report.Galaxies == 0 || len(report.Tasks) == 0 {
		t.Errorf("federated task report is empty: %+v", report)
	}
	// The federated pipeline applies its photometric cuts coordinator-side
	// (the wire carries whole neighbourhoods); the centralised one pushes
	// them into its local sweeps. Both must equal the in-memory Finder,
	// which filters after delivery.
	mem, err := maxbcg.NewFinder(cat, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := mem.Run(target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, memRes) {
		t.Errorf("federated result differs from the in-memory Finder: %s vs %s", got.Summary(), memRes.Summary())
	}

	// Transfer accounting: code (probes) moved to the data, results
	// moved back, boundary rows exchanged at boot — all non-zero and
	// exactly the bytes the wire counters saw.
	ts, err := c.TransferStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ts.CodeBytes == 0 || ts.ResultBytes == 0 || ts.BoundaryBytes == 0 {
		t.Errorf("transfer stats incomplete: %+v", ts)
	}
	st := c.CoordStats()
	if ts.CodeBytes != st.ProbeBytesOut || ts.ResultBytes != st.HitBytesIn {
		t.Errorf("transfer stats disagree with coordinator counters: %+v vs %+v", ts, st)
	}
}

// TestWorkerHTTPSurface exercises the daemon-facing endpoints:
// /healthz flips with readiness and draining, /stats reports the wire
// byte counters, /metrics exposes the fed_* families.
func TestWorkerHTTPSurface(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 21, 1500, 1)
	topo := fedTestTopo(region)
	c, workers := startFederation(t, cat, topo, fed.Options{})

	// Generate some traffic so the counters are non-zero.
	probes := testProbes(region, 23, 16)
	_ = federatedSweep(t, c, probes)

	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(workers) {
		t.Fatalf("Stats returned %d workers, want %d", len(stats), len(workers))
	}
	var totalHits int64
	for i, ws := range stats {
		if !ws.Ready {
			t.Errorf("worker %d not ready", i)
		}
		if ws.ZoneRows == 0 {
			t.Errorf("worker %d has an empty zone table", i)
		}
		// A stripe whose owned boundary zones fall inside its own slice
		// fetches nothing, but it still serves its neighbours' fetches.
		if ws.ExchangeBytesIn+ws.ExchangeBytesOut == 0 {
			t.Errorf("worker %d exchanged no boundary bytes", i)
		}
		totalHits += ws.Hits
	}
	if totalHits != c.CoordStats().Hits {
		t.Errorf("workers report %d hits total, coordinator %d", totalHits, c.CoordStats().Hits)
	}

	// Raw endpoint checks against worker 0's live server.
	w0 := workers[0]
	w0.EnableMetrics(telemetry.NewRegistry())
	url := topo.Stripes[0].Endpoints[0]
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz returned %d for a ready worker", resp.StatusCode)
	}

	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var ws fed.WorkerStats
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatalf("/stats did not decode: %v", err)
	}
	resp.Body.Close()
	if ws.Name != topo.Stripes[0].Name || !ws.Ready {
		t.Errorf("/stats payload wrong: %+v", ws)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, family := range []string{
		"fed_worker_ready", "fed_worker_zone_rows", "fed_worker_sweeps_total",
		"fed_worker_probes_total", "fed_worker_hits_total",
		`fed_transfer_bytes_total{kind="probes_in"}`,
		`fed_transfer_bytes_total{kind="exchange_in"}`,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	// Draining flips /healthz to 503 so load balancers stop routing.
	w0.SetDraining(true)
	defer w0.SetDraining(false)
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz returned %d for a draining worker, want 503", resp.StatusCode)
	}
}
