package maxbcg

import (
	"reflect"
	"testing"

	"repro/internal/astro"
	"repro/internal/sqldb"
)

// runDBFinderWorkers is runDBFinder with an explicit sweep worker count.
func runDBFinderWorkers(t *testing.T, target astro.Box, workers int) *Result {
	t.Helper()
	cat := batchEquivCatalog(t)
	db := sqldb.Open(0)
	f, err := NewDBFinder(db, DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Workers = workers
	if _, err := f.ImportGalaxies(cat, cat.Region); err != nil {
		t.Fatal(err)
	}
	res, _, err := f.Run(target, true)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelWorkersMatchSequential is the pipeline-level determinism
// guarantee of the parallel sweep: candidates, clusters, and members must
// be bit-identical whatever the worker count, because the per-zone hit
// buffers are merged back in zone order before any row is consumed. The
// sequential run is itself anchored to the in-memory Finder, which filters
// friends and members after delivery: the photometric cuts DBFinder pushes
// down into its sweeps (evaluated on the workers — the CI race job runs
// this) must not change a single output row.
func TestParallelWorkersMatchSequential(t *testing.T) {
	target := astro.MustBox(195.4, 196.0, 2.4, 2.8)
	seq := runDBFinderWorkers(t, target, 1)
	if len(seq.Candidates) == 0 || len(seq.Clusters) == 0 || len(seq.Members) == 0 {
		t.Fatalf("degenerate fixture: %s", seq.Summary())
	}
	mem, err := NewFinder(batchEquivCatalog(t), DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := mem.Run(target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, memRes) {
		t.Errorf("sequential DBFinder differs from the in-memory Finder: %s vs %s", seq.Summary(), memRes.Summary())
	}
	for _, workers := range []int{0, 2, 4, 8} {
		par := runDBFinderWorkers(t, target, workers)
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
