package maxbcg

import (
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/sqldb"
)

// TestCandZoneProjectionAttached pins that the pipeline gives CandZone its
// column-major projection through the SQL DDL path, so fIsCluster's
// candidate searches scan packed arrays.
func TestCandZoneProjectionAttached(t *testing.T) {
	cat := batchEquivCatalog(t)
	target := astro.MustBox(195.4, 196.0, 2.4, 2.8)
	f, err := NewDBFinder(sqldb.Open(0), DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ImportGalaxies(cat, cat.Region); err != nil {
		t.Fatal(err)
	}
	if err := f.SpZone(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MakeCandidates(target.Expand(f.Params.BufferDeg)); err != nil {
		t.Fatal(err)
	}
	if f.candZT.Columnar() == nil {
		t.Error("CandZone has no columnar projection")
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
