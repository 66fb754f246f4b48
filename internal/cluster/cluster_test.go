package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/astro"
	"repro/internal/maxbcg"
	"repro/internal/sky"
)

func testCatalog(t testing.TB, seed int64) *sky.Catalog {
	t.Helper()
	cat, err := sky.Generate(sky.GenConfig{
		Region: astro.MustBox(193.9, 196.4, 1.2, 3.8),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestPlanPaperGeometry(t *testing.T) {
	// Paper Figure 6: target 11x6 inside survey 13x8; 3 servers; each
	// gets a 1 deg buffer; total duplicated data = 4 x 13 deg².
	survey := astro.MustBox(172, 185, -3, 5)
	target := astro.MustBox(173, 184, -2, 4)
	parts, err := Plan(target, 3, 0.5, survey)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d partitions", len(parts))
	}
	// Each slab is 11 x 2 deg; imports are slab + 1 deg clipped to survey.
	for i, p := range parts {
		if math.Abs(p.Target.FlatArea()-22) > 1e-9 {
			t.Errorf("partition %d target area %g, want 22", i, p.Target.FlatArea())
		}
		if p.Import.MinRa != 172 || p.Import.MaxRa != 185 {
			t.Errorf("partition %d import ra range %v, want the full 13 deg", i, p.Import)
		}
		if math.Abs(p.Import.Height()-4) > 1e-9 {
			t.Errorf("partition %d import height %g, want 4 (2 + two 1-deg buffers)", i, p.Import.Height())
		}
	}
	dup := DuplicatedArea(parts, target, 0.5, survey)
	if math.Abs(dup-52) > 1e-9 {
		t.Errorf("duplicated area = %g deg², want 4 x 13 = 52 (Figure 6)", dup)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := Plan(astro.MustBox(0, 1, 0, 1), 0, 0.5, astro.MustBox(0, 1, 0, 1)); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestPartitionedIdenticalToSequential(t *testing.T) {
	// The paper's §2.4 invariant: "The union of the answers from the
	// three partitions is identical to the BCG candidates and clusters
	// returned by the sequential (one node) implementation."
	cat := testCatalog(t, 1)
	target := astro.MustBox(194.9, 195.4, 1.8, 3.2)
	cfg := Config{
		Nodes:          1,
		Params:         maxbcg.DefaultParams(),
		IncludeMembers: true,
	}
	seq, err := Run(cat, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = 3
	par, err := Run(cat, target, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(par.Merged.Clusters) != len(seq.Merged.Clusters) {
		t.Fatalf("clusters differ: %d vs %d", len(par.Merged.Clusters), len(seq.Merged.Clusters))
	}
	for i := range par.Merged.Clusters {
		a, b := par.Merged.Clusters[i], seq.Merged.Clusters[i]
		if a.ObjID != b.ObjID || a.NGal != b.NGal || a.Z != b.Z || math.Abs(a.Chi2-b.Chi2) > 1e-12 {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(par.Merged.Candidates) != len(seq.Merged.Candidates) {
		t.Fatalf("candidates differ: %d vs %d", len(par.Merged.Candidates), len(seq.Merged.Candidates))
	}
	for i := range par.Merged.Candidates {
		if par.Merged.Candidates[i].ObjID != seq.Merged.Candidates[i].ObjID {
			t.Fatalf("candidate %d differs", i)
		}
	}
	if len(par.Merged.Members) != len(seq.Merged.Members) {
		t.Fatalf("members differ: %d vs %d", len(par.Merged.Members), len(seq.Merged.Members))
	}
	for i := range par.Merged.Members {
		if par.Merged.Members[i] != seq.Merged.Members[i] {
			t.Fatalf("member %d differs", i)
		}
	}
}

// TestPartitionedMatchesInMemoryFinder anchors the partitioned pipeline to
// the in-memory Finder: the merged candidates, clusters, and members are
// bit-identical to it at every node count, on the full test survey and on
// a small patch whose slabs hold few clusters.
func TestPartitionedMatchesInMemoryFinder(t *testing.T) {
	small, err := sky.Generate(sky.GenConfig{
		Region: astro.MustBox(195.0, 195.8, 2.2, 3.0),
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cat    *sky.Catalog
		target astro.Box
		nodes  []int
	}{
		{"survey", testCatalog(t, 3), astro.MustBox(194.9, 195.4, 1.9, 3.1), []int{2, 3}},
		{"patch", small, astro.MustBox(195.2, 195.6, 2.4, 2.8), []int{2}},
	} {
		finder, err := maxbcg.NewFinder(tc.cat, maxbcg.DefaultParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := finder.Run(tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if len(mem.Candidates) == 0 || len(mem.Clusters) == 0 || len(mem.Members) == 0 {
			t.Fatalf("%s: degenerate fixture: %s", tc.name, mem.Summary())
		}
		for _, n := range tc.nodes {
			par, err := Run(tc.cat, tc.target, Config{Nodes: n, Params: maxbcg.DefaultParams(), IncludeMembers: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Merged, mem) {
				t.Errorf("%s, %d nodes: merged %s, in-memory finder %s",
					tc.name, n, par.Merged.Summary(), mem.Summary())
			}
		}
	}
}

func TestDuplicatedWorkAccounting(t *testing.T) {
	// Partitioning must show the paper's cost shape: more total galaxies
	// processed (duplicated buffer strips) than the single-node run.
	cat := testCatalog(t, 5)
	target := astro.MustBox(194.9, 195.4, 1.9, 3.1)
	seq, err := Run(cat, target, Config{Nodes: 1, Params: maxbcg.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(cat, target, Config{Nodes: 3, Params: maxbcg.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, seqGal := seq.Totals()
	_, _, _, parGal := par.Totals()
	if parGal <= seqGal {
		t.Errorf("partitioned run processed %d galaxies vs sequential %d: no duplication?", parGal, seqGal)
	}
	// Paper Table 1: 2,348,050 / 1,574,656 = 1.49 with narrow slabs; our
	// geometry differs but duplication should stay well under 3x.
	if float64(parGal) > 3*float64(seqGal) {
		t.Errorf("duplication factor %.2f implausibly high", float64(parGal)/float64(seqGal))
	}
	// Per-node reports must carry the three tasks.
	for _, n := range par.Nodes {
		if len(n.Report.Tasks) < 3 {
			t.Errorf("node %s has %d task rows", n.Partition.Name, len(n.Report.Tasks))
		}
	}
}

// TestRunReturnsNodeError pins the node pool's failure path: a node whose
// finder cannot be built makes Run fail with its error, whether the nodes
// run at once or one after another.
func TestRunReturnsNodeError(t *testing.T) {
	cat := testCatalog(t, 1)
	params := maxbcg.DefaultParams()
	params.Chi2Cutoff = 0
	for _, sequential := range []bool{false, true} {
		res, err := Run(cat, astro.MustBox(194.9, 195.4, 1.8, 3.2), Config{Nodes: 3, Params: params, Sequential: sequential})
		if err == nil || !strings.Contains(err.Error(), "chi-squared cutoff") || res != nil {
			t.Errorf("sequential=%v: got %v, %v; want the finder's parameter error", sequential, res, err)
		}
	}
}
