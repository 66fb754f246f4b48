// Package cluster reproduces the paper's SQL Server cluster (§2.4): the
// target area is partitioned into declination slabs, one per server; each
// server imports its slab plus a 1° buffer of duplicated data (Figure 6),
// runs the full MaxBCG pipeline independently, and the union of the
// answers is identical to the sequential run — the paper's headline
// parallelism result, at ~2× elapsed speedup for 3 nodes at the cost of
// ~25% duplicated CPU and I/O (Table 1).
//
// This is the coarse, shared-nothing level of the engine's parallelism:
// each node gets a private database (store, buffer pool, tables), and the
// nodes run as the tasks of perfmodel.RunPool. Config.Workers additionally
// sizes each node's intra-node pool of fBCGCandidate zone-band workers
// (maxbcg.DBFinder.Workers, the same RunPool); both levels preserve
// bit-identical output. See ARCHITECTURE.md, "Concurrency model".
package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/astro"
	"repro/internal/maxbcg"
	"repro/internal/perfmodel"
	"repro/internal/sky"
	"repro/internal/sqldb"
)

// Partition is one server's share: its private target slab and the region
// of catalog data it must import (slab + 2×buffer margin, clipped to the
// survey).
type Partition struct {
	Name   string
	Target astro.Box
	Import astro.Box
}

// Plan splits the target into n horizontal slabs and computes each
// server's import region. bufferDeg is the algorithm buffer (0.5°); the
// import margin is twice that — the paper's Figure 6 gives each server a
// 1° buffer ("S1 provides 1 deg buffer on top ...").
func Plan(target astro.Box, n int, bufferDeg float64, survey astro.Box) ([]Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	slabs := target.SplitDec(n)
	parts := make([]Partition, n)
	for i, slab := range slabs {
		imp := slab.Expand(2 * bufferDeg)
		if clipped, ok := imp.Intersect(survey); ok {
			imp = clipped
		}
		parts[i] = Partition{
			Name:   fmt.Sprintf("P%d", i+1),
			Target: slab,
			Import: imp,
		}
	}
	return parts, nil
}

// DuplicatedArea returns the total import area exceeding a fair share of
// the (buffered) whole: the Figure 6 quantity ("Total duplicated data =
// 4 x 13 deg²" for 3 servers on the paper's region).
func DuplicatedArea(parts []Partition, target astro.Box, bufferDeg float64, survey astro.Box) float64 {
	whole := target.Expand(2 * bufferDeg)
	if clipped, ok := whole.Intersect(survey); ok {
		whole = clipped
	}
	var sum float64
	for _, p := range parts {
		sum += p.Import.FlatArea()
	}
	return sum - whole.FlatArea()
}

// NodeResult is one server's outcome.
type NodeResult struct {
	Partition Partition
	Report    maxbcg.TaskReport
	Result    *maxbcg.Result
	Elapsed   time.Duration
}

// Result is a full cluster run.
type Result struct {
	Nodes   []NodeResult
	Merged  *maxbcg.Result
	Elapsed time.Duration // wall time of the parallel phase
}

// Config shapes a cluster run. Every node uses the catalog's
// k-correction table, the paper's zone height and a default-sized buffer
// pool.
type Config struct {
	Nodes  int
	Params maxbcg.Params
	// Workers is each node's DBFinder.Workers: how many goroutines run
	// the candidate task's zone bands, each band's sweep sequential.
	// 0 = divide GOMAXPROCS across the nodes (see Run); 1 = the node's
	// bands run one after another. Every setting produces bit-identical
	// output.
	Workers int
	// Sequential forces the partitions to run one after another; used to
	// attribute CPU cleanly when measuring.
	Sequential bool
	// IncludeMembers adds the member-retrieval task.
	IncludeMembers bool
}

// Run partitions the target, runs one DBFinder per node (each with its own
// database, like the paper's independent servers), and merges the answers.
func Run(cat *sky.Catalog, target astro.Box, cfg Config) (*Result, error) {
	parts, err := Plan(target, cfg.Nodes, cfg.Params.BufferDeg, cat.Region)
	if err != nil {
		return nil, err
	}
	res := &Result{Nodes: make([]NodeResult, len(parts))}

	// Process-wide worker budget: when the nodes run concurrently and no
	// explicit per-node pool size is set, each gets max(1, GOMAXPROCS/n)
	// workers instead of a full pool, so n simulated servers sharing one
	// box do not oversubscribe it n-fold. A sequential node has the whole
	// box to itself. Workers never change output.
	workers := cfg.Workers
	if workers == 0 && !cfg.Sequential && len(parts) > 1 {
		workers = max(1, runtime.GOMAXPROCS(0)/len(parts))
	}

	runNode := func(i int) error {
		part := parts[i]
		db := sqldb.Open(0)
		finder, err := maxbcg.NewDBFinder(db, cfg.Params, cat.Kcorr, 0)
		if err != nil {
			return err
		}
		finder.Workers = workers
		if _, err := finder.ImportGalaxies(cat, part.Import); err != nil {
			return err
		}
		start := time.Now()
		out, report, err := finder.Run(part.Target, cfg.IncludeMembers)
		if err != nil {
			return fmt.Errorf("cluster: node %s: %w", part.Name, err)
		}
		res.Nodes[i] = NodeResult{
			Partition: part, Report: report, Result: out,
			Elapsed: time.Since(start),
		}
		return nil
	}

	// The nodes are tasks of the same pool the candidate task's zone bands
	// run on: one worker per node, or one for all of them under
	// Sequential. The nodes bill their own CPU, so the pool's is dropped.
	nodeWorkers := len(parts)
	if cfg.Sequential {
		nodeWorkers = 1
	}
	start := time.Now()
	if _, err := perfmodel.RunPool(nodeWorkers, len(parts), func(_, i int) error { return runNode(i) }); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)

	merged := &maxbcg.Result{}
	for _, n := range res.Nodes {
		merged.Candidates = append(merged.Candidates, n.Result.Candidates...)
		merged.Clusters = append(merged.Clusters, n.Result.Clusters...)
		merged.Members = append(merged.Members, n.Result.Members...)
	}
	res.Merged = dedupe(merged)
	return res, nil
}

// dedupe sorts and removes duplicate rows: candidate areas of neighbouring
// partitions overlap in the buffer strips, and duplicated computation
// produces identical rows ("The duplicated computations are insignificant
// compared to the total work").
func dedupe(r *maxbcg.Result) *maxbcg.Result {
	sort.Slice(r.Candidates, func(a, b int) bool { return r.Candidates[a].ObjID < r.Candidates[b].ObjID })
	sort.Slice(r.Clusters, func(a, b int) bool { return r.Clusters[a].ObjID < r.Clusters[b].ObjID })
	sort.Slice(r.Members, func(a, b int) bool {
		if r.Members[a].ClusterObjID != r.Members[b].ClusterObjID {
			return r.Members[a].ClusterObjID < r.Members[b].ClusterObjID
		}
		return r.Members[a].GalaxyObjID < r.Members[b].GalaxyObjID
	})
	out := &maxbcg.Result{}
	for i, c := range r.Candidates {
		if i == 0 || c.ObjID != r.Candidates[i-1].ObjID {
			out.Candidates = append(out.Candidates, c)
		}
	}
	for i, c := range r.Clusters {
		if i == 0 || c.ObjID != r.Clusters[i-1].ObjID {
			out.Clusters = append(out.Clusters, c)
		}
	}
	for i, m := range r.Members {
		if i == 0 || m != r.Members[i-1] {
			out.Members = append(out.Members, m)
		}
	}
	return out
}

// Totals aggregates the per-node task stats: the "Partitioning Total" row
// of Table 1 (elapsed = slowest node; CPU and I/O = sums).
func (r *Result) Totals() (elapsed time.Duration, cpu time.Duration, io int64, galaxies int64) {
	for _, n := range r.Nodes {
		t := n.Report.Total()
		if t.Elapsed > elapsed {
			elapsed = t.Elapsed
		}
		cpu += t.CPU
		io += t.IO
		galaxies += n.Report.Galaxies
	}
	return elapsed, cpu, io, galaxies
}
