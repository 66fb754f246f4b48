package maxbcg

import (
	"testing"

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

// TestWorkerCPUAttributed pins the worker CPU attribution satellite: a
// multi-worker run must report task CPU that includes the sweep workers'
// thread time, so the sweep-dominated fBCGCandidate task cannot report
// (near-)zero CPU while its workers burn a multiple of elapsed.
func TestWorkerCPUAttributed(t *testing.T) {
	cat := batchEquivCatalog(t)
	db := sqldb.Open(0)
	f, err := NewDBFinder(db, DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Workers = 4
	if _, err := f.ImportGalaxies(cat, cat.Region); err != nil {
		t.Fatal(err)
	}
	_, report, err := f.Run(astro.MustBox(195.4, 196.0, 2.4, 2.8), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range report.Tasks {
		if task.Name == "fBCGCandidate" && task.CPU <= 0 {
			t.Errorf("task %s reports %v CPU with Workers=4", task.Name, task.CPU)
		}
	}
}
