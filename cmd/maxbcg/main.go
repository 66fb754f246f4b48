// Command maxbcg runs the galaxy-cluster finder over a catalog file (from
// skygen) with a selectable implementation: the in-memory zone index, the
// database-backed pipeline (with the paper's Table 1 per-task report), the
// TAM file-based baseline, or an n-node partitioned cluster.
//
// Usage:
//
//	maxbcg -cat sky.cat -impl db [-nodes 3] [-workers 0]
//	       [-minra 194.9 -maxra 195.4 -mindec 2.3 -maxdec 2.8]
//
// -workers sizes each node's fBCGCandidate pool: the workers that scan,
// sweep and finish the candidate task's bands of 16 zones, one sequential
// sweep per band (0 = one worker per CPU, 1 = one band at a time). The
// answer is bit-identical at every setting.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/astro"
	"repro/internal/cluster"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/tam"
)

func main() {
	var (
		catPath = flag.String("cat", "sky.cat", "catalog file from skygen")
		impl    = flag.String("impl", "memory", "implementation: memory, db, tam, cluster")
		nodes   = flag.Int("nodes", 3, "node count for -impl cluster")
		workers = flag.Int("workers", 0, "candidate-pool workers per node (0 = one per CPU, 1 = one zone band at a time)")
		shards  = flag.Int("pool-shards", 0, "buffer pool shards per database (0 = one per CPU)")
		minRa   = flag.Float64("minra", 194.9, "target min ra")
		maxRa   = flag.Float64("maxra", 195.4, "target max ra")
		minDec  = flag.Float64("mindec", 2.3, "target min dec")
		maxDec  = flag.Float64("maxdec", 2.8, "target max dec")
	)
	flag.Parse()

	cat, err := sky.LoadFile(*catPath)
	if err != nil {
		fatal(err)
	}
	target, err := astro.NewBox(*minRa, *maxRa, *minDec, *maxDec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("catalog: %d galaxies over %v; target %v (%.2f deg²); impl=%s\n",
		cat.Len(), cat.Region, target, target.FlatArea(), *impl)

	params := maxbcg.DefaultParams()
	var res *maxbcg.Result
	switch *impl {
	case "memory":
		finder, err := maxbcg.NewFinder(cat, params, 0)
		if err != nil {
			fatal(err)
		}
		res, err = finder.Run(target)
		if err != nil {
			fatal(err)
		}
	case "db":
		db := sqldb.OpenPool(sqldb.PoolConfig{Shards: *shards})
		finder, err := maxbcg.NewDBFinder(db, params, cat.Kcorr, 0)
		if err != nil {
			fatal(err)
		}
		finder.Workers = *workers
		if _, err := finder.ImportGalaxies(cat, cat.Region); err != nil {
			fatal(err)
		}
		var report maxbcg.TaskReport
		res, report, err = finder.Run(target, true)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-26s %10s %10s %10s\n", "task", "elapse(s)", "cpu(s)", "I/O")
		for _, t := range report.Tasks {
			fmt.Printf("%-26s %10.3f %10.3f %10d\n", t.Name, t.Elapsed.Seconds(), t.CPU.Seconds(), t.IO)
		}
	case "tam":
		dir, err := os.MkdirTemp("", "tamstage")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg := tam.DefaultConfig()
		res, err = tam.Run(cat, target, cfg, dir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("processed %d fields of %.2f deg² with a %.2f° buffer and %d z-steps\n",
			len(target.Fields(cfg.FieldSideDeg)), cfg.FieldSideDeg*cfg.FieldSideDeg,
			cfg.BufferDeg, cfg.Kcorr.Steps())
	case "cluster":
		out, err := cluster.Run(cat, target, cluster.Config{
			Nodes: *nodes, Params: params, IncludeMembers: true,
			Workers: *workers, PoolShards: *shards,
		})
		if err != nil {
			fatal(err)
		}
		for _, n := range out.Nodes {
			t := n.Report.Total()
			fmt.Printf("%-4s target %v: %8.3fs elapsed, %8.3fs cpu, %d I/O, %d galaxies\n",
				n.Partition.Name, n.Partition.Target, t.Elapsed.Seconds(), t.CPU.Seconds(),
				t.IO, n.Report.Galaxies)
		}
		fmt.Printf("parallel elapsed: %.3fs\n", out.Elapsed.Seconds())
		res = out.Merged
	default:
		fatal(fmt.Errorf("unknown implementation %q", *impl))
	}

	fmt.Printf("result: %s\n", res.Summary())
	for i, c := range res.Clusters {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(res.Clusters)-10)
			break
		}
		fmt.Printf("  cluster objid=%-8d (%.4f, %+.4f) z=%.3f ngal=%-3d chi2=%.3f\n",
			c.ObjID, c.Ra, c.Dec, c.Z, c.NGal, c.Chi2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maxbcg:", err)
	os.Exit(1)
}
