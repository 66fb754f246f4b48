package maxbcg

import (
	"testing"

	"repro/internal/astro"
	"repro/internal/sky"
)

// batchEquivCatalog is a small but fully populated survey patch shared by
// the equivalence tests.
func batchEquivCatalog(t *testing.T) *sky.Catalog {
	t.Helper()
	cat, err := sky.Generate(sky.GenConfig{
		Region: astro.MustBox(195.0, 196.4, 2.0, 3.2),
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestBatchModeSpansBatchBoundaries pins that the pipeline tests over
// batchEquivCatalog (TestWorkerCPUAttributed, TestCandZoneColumnPrimary)
// fill more than one candidate batch: the survey patch must hold more than
// candidateBatchSize χ² survivors, so a future batch-size bump does not
// silently weaken them. The pool's equivalence and failure tests use
// poolCatalog and check their own four-batch floor.
func TestBatchModeSpansBatchBoundaries(t *testing.T) {
	cat := batchEquivCatalog(t)
	p := DefaultParams()
	var scratch [64]chiRow
	survivors := 0
	for i := range cat.Galaxies {
		if len(chiSquareTable(p, &cat.Galaxies[i], cat.Kcorr, scratch[:0])) > 0 {
			survivors++
		}
	}
	if survivors <= candidateBatchSize {
		t.Fatalf("fixture has %d χ² survivors, need > %d to exercise batch flushing",
			survivors, candidateBatchSize)
	}
}
