package maxbcg

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// poolCatalog is batchEquivCatalog's patch with about seven times the injected
// cluster density: the same galaxy count, but enough χ² survivors to fill
// more batches than the candidate pool has workers.
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

// chiSurvivors counts the galaxies in area that pass the χ² filter: the
// probes makeCandidatesBatch buffers into batches.
func chiSurvivors(cat *sky.Catalog, area astro.Box) int {
	p := DefaultParams()
	var scratch [64]chiRow
	n := 0
	for i := range cat.Galaxies {
		g := &cat.Galaxies[i]
		if area.Contains(g.Ra, g.Dec) && len(chiSquareTable(p, g, cat.Kcorr, scratch[:0])) > 0 {
			n++
		}
	}
	return n
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
// pages read and the staged candidates' scan order, because batch outputs
// are concatenated in scan order however the workers finish. The fixture
// holds at least four batches, so every pool size has batches in flight
// on several workers at once. The sequential run is itself anchored to
// the in-memory Finder, which filters friends and members after
// delivery: the photometric cuts DBFinder pushes down into its sweeps must
// not change a single output row. CI runs this under the race detector.
func TestParallelWorkersMatchSequential(t *testing.T) {
	cat := poolCatalog(t)
	area := poolTarget.Expand(DefaultParams().BufferDeg)
	if n := chiSurvivors(cat, area); n < 4*candidateBatchSize {
		t.Fatalf("fixture has %d χ² survivors, need ≥ %d to span four batches", n, 4*candidateBatchSize)
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
		staged, err := f.makeCandidatesBatch(area)
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

var errStubSweep = errors.New("stub sweep failed")

// failingSweeper is a RemoteSweeper that answers every batch with no hits
// and fails its failAt-th call (counting from 1; 0 never fails). It is
// safe for the pool's concurrent calls.
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

// TestMakeCandidatesErrorStopsPool pins the pool's failure path: a sweep
// that fails on the first, second or last batch makes MakeCandidates
// return that error, and every pool goroutine exits before it returns.
// Remote answers the sweeps, and the local Zone SpZone builds is the
// probe list, so every run calls SpZone first.
func TestMakeCandidatesErrorStopsPool(t *testing.T) {
	cat := poolCatalog(t)
	area := poolTarget.Expand(DefaultParams().BufferDeg)
	counter := &failingSweeper{}
	f := importedFinder(t, cat, 4)
	f.Remote = counter
	if err := f.SpZone(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MakeCandidates(area); err != nil {
		t.Fatal(err)
	}
	batches := counter.calls.Load()
	if batches < 4 {
		t.Fatalf("fixture makes %d batches, need ≥ 4", batches)
	}
	for _, workers := range []int{1, 4} {
		for _, k := range []int64{1, 2, batches} {
			f := importedFinder(t, cat, workers)
			f.Remote = &failingSweeper{failAt: k}
			if err := f.SpZone(); err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			if _, err := f.MakeCandidates(area); !errors.Is(err, errStubSweep) {
				t.Errorf("workers=%d, failing call %d of %d: got error %v, want %v", workers, k, batches, err, errStubSweep)
			}
			// An exited goroutine can take a moment to leave the count.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("workers=%d, failing call %d: %d goroutines after MakeCandidates, %d before", workers, k, n, base)
			}
		}
	}
}
