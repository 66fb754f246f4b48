package fed_test

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/fed"
	"repro/internal/perfmodel"
	"repro/internal/sky"
)

// quietLogger keeps worker boot chatter out of test output.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// genCatalog builds a small deterministic catalog for the federation
// tests.
func genCatalog(t testing.TB, region astro.Box, seed int64, density, clusters float64) *sky.Catalog {
	t.Helper()
	cat, err := sky.Generate(sky.GenConfig{
		Region:         region,
		Seed:           seed,
		GalaxyDensity:  density,
		ClusterDensity: clusters,
	})
	if err != nil {
		t.Fatalf("generate catalog: %v", err)
	}
	return cat
}

// startFederation boots one in-process worker + httptest server per
// stripe, runs the buffer-zone exchange, and returns a ready
// coordinator. The returned topology (inside the coordinator) carries
// the live server URLs.
func startFederation(t testing.TB, cat *sky.Catalog, topo fed.Topology, opts fed.Options) (*fed.Coordinator, []*fed.Worker) {
	t.Helper()
	n := len(topo.Stripes)
	workers := make([]*fed.Worker, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		w, err := fed.NewWorker(topo, i, cat, fed.WorkerOptions{Logger: quietLogger})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers[i] = w
		servers[i] = httptest.NewServer(w.Handler())
		t.Cleanup(servers[i].Close)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			workers[i].SetEndpoints(j, servers[j].URL)
		}
		topo.Stripes[i].Endpoints = []string{servers[i].URL}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = workers[i].Sync(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sync worker %d: %v", i, err)
		}
	}
	c, err := fed.NewCoordinator(topo, opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return c, workers
}

func TestTopologyValidate(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	good := fed.Topology{Region: region, Stripes: []fed.Stripe{
		{Name: "a", MinDec: 1.0, MaxDec: 1.7},
		{Name: "b", MinDec: 1.7, MaxDec: 3.0},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	bad := []fed.Topology{
		{Region: region},
		{Region: region, Stripes: []fed.Stripe{{MinDec: 1.0, MaxDec: 2.0}}},                             // doesn't reach MaxDec
		{Region: region, Stripes: []fed.Stripe{{MinDec: 1.2, MaxDec: 3.0}}},                             // doesn't start at MinDec
		{Region: region, Stripes: []fed.Stripe{{MinDec: 1.0, MaxDec: 2.0}, {MinDec: 2.1, MaxDec: 3.0}}}, // gap
		{Region: region, Stripes: []fed.Stripe{{MinDec: 1.0, MaxDec: 1.0}, {MinDec: 1.0, MaxDec: 3.0}}}, // empty stripe
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("bad topology %d accepted", i)
		}
	}
}

func TestZoneOwnership(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	topo := fed.Topology{Region: region, Stripes: []fed.Stripe{
		{Name: "a", MinDec: 1.0, MaxDec: 1.61234567}, // deliberately not zone-aligned
		{Name: "b", MinDec: 1.61234567, MaxDec: 2.2},
		{Name: "c", MinDec: 2.2, MaxDec: 3.0},
	}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every zone in the extent is owned by exactly one stripe, and
	// ownership is monotonic in the zone id.
	lo, hi := topo.ZoneExtent()
	prev := 0
	counts := make([]int, len(topo.Stripes))
	for z := lo; z <= hi; z++ {
		o := topo.Owner(z)
		if o < 0 || o >= len(topo.Stripes) {
			t.Fatalf("zone %d owned by out-of-range stripe %d", z, o)
		}
		if o < prev {
			t.Fatalf("ownership regressed at zone %d: %d after %d", z, o, prev)
		}
		prev = o
		counts[o]++
	}
	for i := range topo.Stripes {
		mn, mx, ok := topo.OwnedZones(i)
		if !ok {
			t.Fatalf("stripe %d owns no zones", i)
		}
		if mx-mn+1 != counts[i] {
			t.Fatalf("stripe %d owned range %d..%d disagrees with count %d", i, mn, mx, counts[i])
		}
	}
	// Half-open slices: a dec exactly on an interior cut belongs to the
	// upper stripe; the region's top edge belongs to the last stripe.
	if got := topo.StripeForDec(1.61234567); got != 1 {
		t.Errorf("interior cut dec went to stripe %d, want 1", got)
	}
	if got := topo.StripeForDec(3.0); got != 2 {
		t.Errorf("region top edge went to stripe %d, want 2", got)
	}
	if !topo.SliceContains(2, 3.0) {
		t.Error("last stripe should include its upper edge")
	}
	if topo.SliceContains(0, 0.5) {
		t.Error("dec below the region should be in no slice")
	}
}

func TestPlanStripes(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 3, 2000, 0)

	equal := []fed.Placement{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	topo, err := fed.PlanStripes(cat, region, equal)
	if err != nil {
		t.Fatal(err)
	}
	shares := rowShares(cat, topo)
	for i, s := range shares {
		if math.Abs(s-1.0/3) > 0.02 {
			t.Errorf("equal capacities: stripe %d holds share %.3f, want ~1/3", i, s)
		}
	}

	// A site with double the CPU capacity gets roughly double the rows.
	big := perfmodel.SQLConfig()
	big.CPUs *= 2
	hetero := []fed.Placement{{Name: "big", System: big}, {Name: "small"}}
	topo2, err := fed.PlanStripes(cat, region, hetero)
	if err != nil {
		t.Fatal(err)
	}
	shares2 := rowShares(cat, topo2)
	if math.Abs(shares2[0]-2.0/3) > 0.03 {
		t.Errorf("heterogeneous: big site holds share %.3f, want ~2/3", shares2[0])
	}

	// The cuts round-trip through the -cuts flag format.
	rt, err := fed.ParseCuts(region, fed.FormatCuts(topo))
	if err != nil {
		t.Fatalf("round-trip cuts: %v", err)
	}
	for i := range topo.Stripes {
		if math.Abs(rt.Stripes[i].MinDec-topo.Stripes[i].MinDec) > 1e-8 ||
			math.Abs(rt.Stripes[i].MaxDec-topo.Stripes[i].MaxDec) > 1e-8 {
			t.Fatalf("cuts did not round-trip: %+v vs %+v", rt.Stripes[i], topo.Stripes[i])
		}
	}
}

func rowShares(cat *sky.Catalog, topo fed.Topology) []float64 {
	counts := make([]float64, len(topo.Stripes))
	var total float64
	for _, g := range cat.Galaxies {
		if !topo.Region.Contains(g.Ra, g.Dec) {
			continue
		}
		counts[topo.StripeForDec(g.Dec)]++
		total++
	}
	for i := range counts {
		counts[i] /= total
	}
	return counts
}
