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

// TestPipelineFixtureSpansBands pins that the pipeline tests over
// batchEquivCatalog (TestWorkerCPUAttributed, TestCandZoneColumnPrimary)
// give the candidate pool more than one unit of work: the χ² survivors of
// their area must lie in more than one zone band, so a future band-width
// bump does not silently leave their workers idle. The pool's equivalence
// test uses poolCatalog and checks its own four-band floor.
func TestPipelineFixtureSpansBands(t *testing.T) {
	cat := batchEquivCatalog(t)
	area := astro.MustBox(195.4, 196.0, 2.4, 2.8).Expand(DefaultParams().BufferDeg)
	f := importedFinder(t, cat, 1)
	if err := f.SpZone(); err != nil {
		t.Fatal(err)
	}
	if n := survivorBands(f, cat, area); n < 2 {
		t.Fatalf("fixture's χ² survivors lie in %d zone band(s), need > 1", n)
	}
}
