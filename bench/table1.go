package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/maxbcg"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// pipelineOracle is the in-memory MaxBCG run both pipeline workloads
// must reproduce exactly: same logic, no pages, no SQL.
func pipelineOracle(in *inputs) (*maxbcg.Result, error) {
	f, err := maxbcg.NewFinder(in.cat, maxbcg.DefaultParams(), 0)
	if err != nil {
		return nil, err
	}
	return f.Run(in.size.target)
}

func checkResult(got, want *maxbcg.Result) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("result differs from the in-memory finder: got %s, want %s", got.Summary(), want.Summary())
	}
	return nil
}

// table1 is the paper's Table 1 single-server run. Every op opens a
// fresh database with the default pool (4096 frames = 32 MiB, larger
// than everything the run writes), imports the galaxies and runs the
// whole pipeline with shipping defaults.
type table1 struct {
	in       *inputs
	want     *maxbcg.Result
	got      *maxbcg.Result
	pools    storage.Stats // summed over the ops' private pools
	galaxies int64
}

func setupTable1(in *inputs) (instance, error) { return &table1{in: in}, nil }

func (w *table1) buildOracle() (err error) {
	w.want, err = pipelineOracle(w.in)
	return err
}

func (w *table1) op(i int, tr *opTrace) error {
	w.got = nil
	res, gals, st, err := singleNodeRun(w.in, tr)
	w.pools.Add(st)
	w.got, w.galaxies = res, gals
	return err
}

// singleNodeRun is the table1_pipeline op. Untraced it goes through the
// front door, DBFinder.Run; traced it makes Run's calls itself with a
// span around each, which is the only way to see them separately
// from outside the engine.
func singleNodeRun(in *inputs, tr *opTrace) (*maxbcg.Result, int64, storage.Stats, error) {
	target := in.size.target
	var db *sqldb.DB
	io := func() int64 {
		if db == nil {
			return 0
		}
		return db.Pool().Stats().Total()
	}
	step := func(name string, fn func() error) error {
		defer tr.span("maxbcg."+name, io)()
		return fn()
	}
	var f *maxbcg.DBFinder
	err := step("open", func() (err error) {
		db = sqldb.OpenPool(sqldb.PoolConfig{})
		f, err = maxbcg.NewDBFinder(db, maxbcg.DefaultParams(), in.cat.Kcorr, 0)
		return err
	})
	if err != nil {
		return nil, 0, storage.Stats{}, err
	}
	var gals int64
	err = step("import", func() (err error) {
		gals, err = f.ImportGalaxies(in.cat, target.Expand(1))
		return err
	})
	if err != nil {
		return nil, 0, db.Pool().Stats(), err
	}
	var res *maxbcg.Result
	if tr == nil {
		res, _, err = f.Run(target, true)
		return res, gals, db.Pool().Stats(), err
	}
	for _, s := range []struct {
		name string
		fn   func() error
	}{
		{"spzone", f.SpZone},
		{"candidates", func() error { _, err := f.MakeCandidates(target.Expand(f.Params.BufferDeg)); return err }},
		{"clusters", func() error { _, err := f.MakeClusters(target); return err }},
		{"members", func() error { _, err := f.MakeMembers(); return err }},
		{"result", func() (err error) { res, err = f.Result(); return err }},
	} {
		if err := step(s.name, s.fn); err != nil {
			return nil, gals, db.Pool().Stats(), err
		}
	}
	return res, gals, db.Pool().Stats(), nil
}

func (w *table1) check(int) error   { return checkResult(w.got, w.want) }
func (w *table1) io() storage.Stats { return w.pools }
func (w *table1) close()            {}

func (w *table1) notes() []string {
	return []string{fmt.Sprintf("pool 4096 frames (32 MiB) per op; %d galaxies imported per op, all pages stay resident", w.galaxies)}
}

func (w *table1) drain() (int, int) { return 0, 0 }

func (w *table1) layers(lr *layerReport) error {
	spans := lr.rec.byName()
	self := selfTimes(lr.rec.spans)
	for _, s := range maxbcgSteps {
		var ms, io, alloc []float64
		for _, sp := range spans["maxbcg."+s] {
			ms = append(ms, float64(self[sp.ID])/1e6)
			io = append(io, float64(sp.IOOps))
			alloc = append(alloc, float64(sp.AllocBytes)/1e6)
		}
		lr.set("maxbcg."+s+"_ms", median(ms))
		lr.set("maxbcg."+s+"_io_ops", median(io))
		lr.set("maxbcg."+s+"_alloc_mb", median(alloc))
	}
	var opMs []float64
	for _, sp := range spans["op"] {
		opMs = append(opMs, sp.ms())
	}
	if p50 := median(opMs); p50 > 0 {
		lr.set("maxbcg.galaxies_per_s", float64(w.galaxies)/(p50/1e3))
	}
	return nil
}

// partitioned is Table 1's other half: cluster.Run over two nodes in
// parallel, each with a private database and a duplicated 1-degree
// buffer, merged and de-duplicated.
type partitioned struct {
	in    *inputs
	want  *maxbcg.Result
	got   *cluster.Result
	pools storage.Stats
	whole int // galaxies a single node imports for the same target

	// per traced op, taken from the slowest node's TaskReport
	stepMs, stepIO map[string][]float64
	skew, dup      []float64
	opMs           []float64
}

func setupPartitioned(in *inputs) (instance, error) {
	w := &partitioned{in: in, stepMs: map[string][]float64{}, stepIO: map[string][]float64{}}
	w.whole = len(in.cat.Select(in.size.target.Expand(1)))
	if w.whole == 0 {
		return nil, fmt.Errorf("no galaxies in the import region")
	}
	return w, nil
}

func (w *partitioned) buildOracle() (err error) {
	w.want, err = pipelineOracle(w.in)
	return err
}

func (w *partitioned) op(i int, tr *opTrace) error {
	w.got = nil
	defer tr.span("cluster.run", nil)()
	res, err := cluster.Run(w.in.cat, w.in.size.target, cluster.Config{
		Nodes: 2, Params: maxbcg.DefaultParams(), IncludeMembers: true,
	})
	if err != nil {
		return err
	}
	w.got = res
	// cluster.Run keeps its pools to itself; the nodes' task reports are
	// the page I/O it publishes (the measured tasks, not the import).
	_, _, io, _ := res.Totals()
	w.pools.LogicalReads += io
	if tr != nil {
		w.observe(res)
	}
	return nil
}

// taskOf maps TaskReport rows onto the span names table1_pipeline uses.
var taskOf = map[string]string{
	"spZone":                    "spzone",
	"fBCGCandidate":             "candidates",
	"fIsCluster":                "clusters",
	"fGetClusterGalaxiesMetric": "members",
}

// observe derives the per-step numbers of one partitioned op from what
// cluster.Run reports. The slowest node sets the op's time, so its tasks
// are the ones that count; import and result time are what is left of
// the parallel phase and of that node's run around its measured tasks.
func (w *partitioned) observe(res *cluster.Result) {
	slow, sum, total := 0, time.Duration(0), int64(0)
	for i, n := range res.Nodes {
		if n.Elapsed > res.Nodes[slow].Elapsed {
			slow = i
		}
		sum += n.Elapsed
		total += n.Report.Galaxies
	}
	node := res.Nodes[slow]
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	var tasks time.Duration
	for _, t := range node.Report.Tasks {
		name := taskOf[t.Name]
		w.stepMs[name] = append(w.stepMs[name], ms(t.Elapsed))
		tasks += t.Elapsed
	}
	io := make(map[string]float64)
	for _, n := range res.Nodes {
		for _, t := range n.Report.Tasks {
			io[taskOf[t.Name]] += float64(t.IO)
		}
	}
	for name, v := range io {
		w.stepIO[name] = append(w.stepIO[name], v)
	}
	w.stepMs["import"] = append(w.stepMs["import"], ms(res.Elapsed-node.Elapsed))
	w.stepMs["result"] = append(w.stepMs["result"], ms(node.Elapsed-tasks))
	w.opMs = append(w.opMs, ms(res.Elapsed))
	w.skew = append(w.skew, float64(node.Elapsed)/(float64(sum)/float64(len(res.Nodes))))
	w.dup = append(w.dup, float64(total)/float64(w.whole)-1)
}

func (w *partitioned) check(int) error {
	if w.got == nil {
		return fmt.Errorf("no result")
	}
	return checkResult(w.got.Merged, w.want)
}

func (w *partitioned) io() storage.Stats { return w.pools }
func (w *partitioned) close()            {}

func (w *partitioned) notes() []string {
	return []string{fmt.Sprintf("2 nodes, default pool each, %d sweep workers per node; io counts are the nodes' task reports", max(1, runtime.GOMAXPROCS(0)/2))}
}

// baselineOps is how many single-node runs the traced partitioned run
// times for the base of cluster.speedup_x.
const baselineOps = 7

func (w *partitioned) drain() (int, int) { return 0, 0 }

func (w *partitioned) layers(lr *layerReport) error {
	for _, s := range maxbcgSteps {
		lr.set("maxbcg."+s+"_ms", median(w.stepMs[s]))
		lr.set("maxbcg."+s+"_io_ops", median(w.stepIO[s]))
	}
	p50 := median(w.opMs)
	if p50 > 0 {
		lr.set("maxbcg.galaxies_per_s", float64(w.whole)/(p50/1e3))
	}
	single, err := p50Ms(baselineOps, func(int) error {
		res, _, _, err := singleNodeRun(w.in, nil)
		if err == nil {
			err = checkResult(res, w.want)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("single-node baseline: %w", err)
	}
	lr.set("cluster.single_node_ms_p50", single)
	if p50 > 0 {
		lr.set("cluster.speedup_x", single/p50)
	}
	lr.set("cluster.node_skew_x", median(w.skew))
	lr.set("cluster.duplicated_galaxies_ratio", median(w.dup))
	return nil
}
