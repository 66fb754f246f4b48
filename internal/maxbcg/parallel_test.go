package maxbcg

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
	"repro/internal/zone"
)

// poolCatalog is batchEquivCatalog's patch with about seven times the
// injected cluster density: the same galaxy count, but enough χ² survivors
// in enough zone bands to keep every pool size's workers busy at once.
func poolCatalog(t *testing.T) *sky.Catalog {
	t.Helper()
	cat, err := sky.Generate(sky.GenConfig{
		Region:         astro.MustBox(195.0, 196.4, 2.0, 3.2),
		Seed:           7,
		ClusterDensity: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// poolTarget is the target box of the pool tests; with the buffer it
// covers poolCatalog's whole region.
var poolTarget = astro.MustBox(195.4, 196.0, 2.4, 2.8)

// chiProbes returns the galaxies of cat in area that pass the χ² filter,
// the probes of fBCGCandidate's neighbour search, with their @friends cuts,
// in catalog order.
func chiProbes(cat *sky.Catalog, area astro.Box) ([]sky.Galaxy, []zone.Probe, []zone.Window) {
	p := DefaultParams()
	var (
		gals    []sky.Galaxy
		probes  []zone.Probe
		wins    []zone.Window
		scratch [64]chiRow
	)
	for i := range cat.Galaxies {
		g := &cat.Galaxies[i]
		if !area.Contains(g.Ra, g.Dec) {
			continue
		}
		rows := chiSquareTable(p, g, cat.Kcorr, scratch[:0])
		if len(rows) == 0 {
			continue
		}
		win, rad := friendWindow(p, g, cat.Kcorr, rows)
		gals = append(gals, *g)
		probes = append(probes, zone.Probe{Ra: g.Ra, Dec: g.Dec, R: rad})
		wins = append(wins, win)
	}
	return gals, probes, wins
}

// survivorBands counts the candidate pool's zone bands that hold χ²
// survivors of area, over f's Zone.
func survivorBands(f *DBFinder, cat *sky.Catalog, area astro.Box) int {
	first := f.zoneT.Columnar().Segments()[0].Group
	gals, _, _ := chiProbes(cat, area)
	bands := map[int64]bool{}
	for i := range gals {
		bands[(int64(astro.ZoneID(gals[i].Dec, f.ZoneHeight))-first)/candidateBandZones] = true
	}
	return len(bands)
}

// zoneOncePages is what MakeCandidates over area reads from f's pool when
// it reads each Zone page at most once per pass, part by part.
type zoneOncePages struct {
	kcorr int64 // the Kcorr scan
	scan  int64 // the Zone segments the directory cannot rule out for area
	sweep int64 // one sweep of every χ² survivor, with its cut, over Zone
	cands int64 // buildCandidateZones' read of Candidates
}

func (p zoneOncePages) total() int64 { return p.kcorr + p.scan + p.sweep + p.cands }

// measureZoneOnce measures each part of zoneOncePages on f, whose
// MakeCandidates over area has run.
func measureZoneOnce(t *testing.T, f *DBFinder, cat *sky.Catalog, area astro.Box) zoneOncePages {
	t.Helper()
	pool := f.DB.Pool()
	var p zoneOncePages
	measure := func(dst *int64, fn func() error) {
		before := pool.Stats()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		*dst = pool.Stats().Sub(before).Total()
	}
	measure(&p.kcorr, f.readKcorr)
	minZone, maxZone := int64(astro.ZoneID(area.MinDec, f.ZoneHeight)), int64(astro.ZoneID(area.MaxDec, f.ZoneHeight))
	for _, m := range f.zoneT.Columnar().Segments() {
		if m.Group >= minZone && m.Group <= maxZone && m.MaxSort >= area.MinRa && m.MinSort <= area.MaxRa {
			p.scan++
		}
	}
	_, probes, wins := chiProbes(cat, area)
	measure(&p.sweep, func() error {
		return zone.Sweep(context.Background(), zone.TableSource(f.zoneT, f.ZoneHeight), probes,
			zone.SweepOptions{Workers: 1, Windows: wins}, func(int, zone.ZoneRow) {})
	})
	measure(&p.cands, func() error { _, err := f.readCandidates(f.candT); return err })
	return p
}

// importedFinder returns a DBFinder over a fresh database with cat's
// galaxies imported and the given candidate pool size.
func importedFinder(t *testing.T, cat *sky.Catalog, workers int) *DBFinder {
	t.Helper()
	f, err := NewDBFinder(sqldb.Open(0), DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Workers = workers
	if _, err := f.ImportGalaxies(cat, cat.Region); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParallelWorkersMatchSequential is the pipeline-level determinism
// guarantee of the candidate pool: candidates, clusters, and members must
// be bit-identical whatever the worker count, and so must each task's
// pages read and the staged candidates' scan order, because each pass's
// band outputs are concatenated in band order however the workers finish.
// The fixture's survivors lie in at least four zone bands, so every pool
// size has bands in flight on several workers at once. The sequential run
// is itself anchored to the in-memory Finder, which filters friends and
// members after delivery: the photometric cuts DBFinder pushes down into
// its sweeps must not change a single output row. CI runs this under the
// race detector.
func TestParallelWorkersMatchSequential(t *testing.T) {
	cat := poolCatalog(t)
	area := poolTarget.Expand(DefaultParams().BufferDeg)
	probe := importedFinder(t, cat, 1)
	if err := probe.SpZone(); err != nil {
		t.Fatal(err)
	}
	if n := survivorBands(probe, cat, area); n < 4 {
		t.Fatalf("fixture's χ² survivors lie in %d zone bands, need ≥ 4", n)
	}
	run := func(workers int) (*Result, TaskReport, []Candidate) {
		res, report, err := importedFinder(t, cat, workers).Run(poolTarget, true)
		if err != nil {
			t.Fatal(err)
		}
		f := importedFinder(t, cat, workers)
		if err := f.SpZone(); err != nil {
			t.Fatal(err)
		}
		staged, err := f.stageCandidates(area)
		if err != nil {
			t.Fatal(err)
		}
		return res, report, staged
	}
	seq, seqReport, seqStaged := run(1)
	if len(seq.Candidates) == 0 || len(seq.Clusters) == 0 || len(seq.Members) == 0 {
		t.Fatalf("degenerate fixture: %s", seq.Summary())
	}
	mem, err := NewFinder(cat, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := mem.Run(poolTarget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, memRes) {
		t.Errorf("sequential DBFinder differs from the in-memory Finder: %s vs %s", seq.Summary(), memRes.Summary())
	}
	for _, workers := range []int{0, 2, 4, 8} {
		par, report, staged := run(workers)
		if !reflect.DeepEqual(seqStaged, staged) {
			t.Errorf("workers=%d: staged candidates differ from the sequential scan order", workers)
		}
		for i, task := range report.Tasks {
			if want := seqReport.Tasks[i]; task.Name != want.Name || task.IO != want.IO {
				t.Errorf("workers=%d: task %s read %d pages, sequential %s read %d", workers, task.Name, task.IO, want.Name, want.IO)
			}
		}
		if !reflect.DeepEqual(seq.Candidates, par.Candidates) {
			t.Errorf("workers=%d: candidates differ: sequential %d rows, parallel %d rows",
				workers, len(seq.Candidates), len(par.Candidates))
		}
		if !reflect.DeepEqual(seq.Clusters, par.Clusters) {
			t.Errorf("workers=%d: clusters differ: sequential %d rows, parallel %d rows",
				workers, len(seq.Clusters), len(par.Clusters))
		}
		if !reflect.DeepEqual(seq.Members, par.Members) {
			t.Errorf("workers=%d: members differ: sequential %d rows, parallel %d rows",
				workers, len(seq.Members), len(par.Members))
		}
	}
}

// TestCandidateSweepReadsZoneOnce pins the candidate pool's page reads:
// MakeCandidates reads the Kcorr table, the Zone segments its scan cannot
// rule out, the pages of one sweep of every χ² survivor over Zone and the
// Candidates table buildCandidateZones reads back, and nothing more, at
// every worker count. A pool whose units of work each sweep zones beyond
// their own reads those zones once per unit, and fails here.
func TestCandidateSweepReadsZoneOnce(t *testing.T) {
	cat := poolCatalog(t)
	area := poolTarget.Expand(DefaultParams().BufferDeg)
	for _, workers := range []int{1, 2, 4, 8} {
		f := importedFinder(t, cat, workers)
		if err := f.SpZone(); err != nil {
			t.Fatal(err)
		}
		pool := f.DB.Pool()
		before := pool.Stats()
		if _, err := f.MakeCandidates(area); err != nil {
			t.Fatal(err)
		}
		got := pool.Stats().Sub(before).Total()
		want := measureZoneOnce(t, f, cat, area)
		if want.scan == 0 || want.sweep == 0 {
			t.Fatalf("degenerate fixture: %+v", want)
		}
		if got != want.total() {
			t.Errorf("workers=%d: MakeCandidates read %d pages, want %d (%+v)", workers, got, want.total(), want)
		}
	}
}

var errStubSweep = errors.New("stub sweep failed")

// failingSweeper is a RemoteSweeper that answers every sweep with no hits
// and fails its failAt-th call (counting from 1; 0 never fails). It is
// safe for concurrent calls.
type failingSweeper struct {
	failAt int64
	calls  atomic.Int64
}

func (s *failingSweeper) Sweep(_ context.Context, _ []zone.Probe, _ func(int, zone.ZoneRow)) error {
	if s.calls.Add(1) == s.failAt {
		return errStubSweep
	}
	return nil
}

// TestMakeCandidatesErrorStopsPool pins the pool's failure path: a Zone
// page fetch that fails — the scan pass's first, one in the middle, the
// sweep pass's last — or a Remote sweep that fails makes MakeCandidates
// return that error, and every pool goroutine exits before it returns.
// The Zone fetches follow the Kcorr scan's and come in the order the
// passes run, so counting fetches finds them.
func TestMakeCandidatesErrorStopsPool(t *testing.T) {
	cat := poolCatalog(t)
	area := poolTarget.Expand(DefaultParams().BufferDeg)
	clean := importedFinder(t, cat, 1)
	if err := clean.SpZone(); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.MakeCandidates(area); err != nil {
		t.Fatal(err)
	}
	pages := measureZoneOnce(t, clean, cat, area)
	zoneFetches := pages.scan + pages.sweep
	boom := errors.New("injected Zone fetch fault")
	check := func(t *testing.T, f *DBFinder, what string, want error) {
		t.Helper()
		base := runtime.NumGoroutine()
		if _, err := f.MakeCandidates(area); !errors.Is(err, want) {
			t.Errorf("workers=%d, %s: got error %v, want %v", f.Workers, what, err, want)
		}
		// An exited goroutine can take a moment to leave the count.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("workers=%d, %s: %d goroutines after MakeCandidates, %d before", f.Workers, what, n, base)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, k := range []int64{1, zoneFetches / 2, zoneFetches} {
			f := importedFinder(t, cat, workers)
			if err := f.SpZone(); err != nil {
				t.Fatal(err)
			}
			var fetches atomic.Int64
			f.DB.Pool().SetFaultHooks(&storage.FaultHooks{Fetch: func() error {
				if fetches.Add(1) == pages.kcorr+k {
					return boom
				}
				return nil
			}})
			check(t, f, fmt.Sprintf("Zone fetch %d of %d failing", k, zoneFetches), boom)
			f.DB.Pool().SetFaultHooks(nil)
		}
		// Remote answers the sweeps, and the local Zone SpZone builds is the
		// probe list, so SpZone runs all the same.
		f := importedFinder(t, cat, workers)
		f.Remote = &failingSweeper{failAt: 1}
		if err := f.SpZone(); err != nil {
			t.Fatal(err)
		}
		check(t, f, "failing Remote sweep", errStubSweep)
	}
}
