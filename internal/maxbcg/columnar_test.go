package maxbcg

import (
	"testing"
	"time"

	"repro/internal/astro"
)

// TestCandZoneColumnPrimary pins fIsCluster's access path. CandZone is
// stored once, as column segments with no row tree, and fIsCluster is one
// sweep over them: its pages stay within CandZone's segment pages plus
// the Candidates scan and the Clusters load. Re-running MakeCandidates
// drops the old CandZone, and the Reclaimer frees its segments with none
// left pending or leaked. CI runs it with the snapshot suite under -race.
func TestCandZoneColumnPrimary(t *testing.T) {
	cat := batchEquivCatalog(t)
	target := astro.MustBox(195.4, 196.0, 2.4, 2.8)
	area := target.Expand(DefaultParams().BufferDeg)
	f := importedFinder(t, cat, 1)
	if err := f.SpZone(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MakeCandidates(area); err != nil {
		t.Fatal(err)
	}
	ct := f.candZT.Columnar()
	if ct == nil {
		t.Fatal("CandZone has no column segments")
	}
	segs := int64(len(ct.Segments()))

	pool := f.DB.Pool()
	pages := func(fn func() error) int64 {
		t.Helper()
		before := pool.Stats()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return pool.Stats().Sub(before).Total()
	}
	var n int64
	clusterPages := pages(func() (err error) {
		n, err = f.MakeClusters(target)
		return err
	})
	if n == 0 {
		t.Fatal("fixture finds no cluster")
	}
	scanPages := pages(func() error {
		_, err := f.readCandidates(f.candT)
		return err
	})
	clusters, err := f.readCandidates(f.clusterT)
	if err != nil {
		t.Fatal(err)
	}
	loadPages := pages(func() error {
		if err := f.clusterT.Truncate(); err != nil {
			return err
		}
		return f.clusterT.BulkInsertFunc(len(clusters), candidateRows(clusters))
	})
	if bound := segs + scanPages + loadPages; clusterPages > bound {
		t.Errorf("fIsCluster read %d pages, want at most %d CandZone segments + %d Candidates scan + %d Clusters load = %d",
			clusterPages, segs, scanPages, loadPages, bound)
	}

	rec := f.DB.Reclaimer()
	leaked := rec.Stats().Leaked
	for round := 0; round < 3; round++ {
		freed := rec.Stats().Freed
		if _, err := f.MakeCandidates(area); err != nil {
			t.Fatal(err)
		}
		if got := rec.Stats().Freed - freed; got < segs {
			t.Errorf("round %d: freed %d pages, want at least the dropped CandZone's %d segments", round, got, segs)
		}
		if p := rec.Pending(); p != 0 {
			t.Errorf("round %d: %d pages pending with no reader live", round, p)
		}
		segs = int64(len(f.candZT.Columnar().Segments()))
	}
	if l := rec.Stats().Leaked - leaked; l != 0 {
		t.Errorf("%d pages leaked across the re-runs", l)
	}
	// No row tree: dropping CandZone frees its segment pages, nothing more.
	freed := rec.Stats().Freed
	if err := f.DB.DropTable("CandZone", false); err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().Freed - freed; got != segs {
		t.Errorf("dropping CandZone freed %d pages, want exactly its %d segments", got, segs)
	}
}

// TestWorkerCPUAttributed pins the cpu(s) column's attribution: the
// candidate pool's workers run on their own threads, and the fBCGCandidate
// task must bill their thread CPU on top of the calling thread's, so the
// sweep-dominated task cannot under-report while its workers burn a
// multiple of elapsed.
func TestWorkerCPUAttributed(t *testing.T) {
	cat := batchEquivCatalog(t)
	for _, workers := range []int{2, 4} {
		f := importedFinder(t, cat, workers)
		_, report, err := f.Run(astro.MustBox(195.4, 196.0, 2.4, 2.8), false)
		if err != nil {
			t.Fatal(err)
		}
		// Only fBCGCandidate runs the pool, so poolCPU is all its own.
		pool := time.Duration(f.poolCPU.Load())
		if pool <= 0 {
			t.Errorf("workers=%d: the candidate pool recorded no CPU time", workers)
		}
		for _, task := range report.Tasks {
			if task.Name == "fBCGCandidate" && task.CPU <= pool {
				t.Errorf("workers=%d: fBCGCandidate reports %v CPU, not above its pool's %v", workers, task.CPU, pool)
			}
		}
	}
}
