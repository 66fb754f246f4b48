package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/storage"
)

// An instance is one set-up copy of a workload: the program under test
// loaded and ready, plus what the benchmark needs to drive and check it.
type instance interface {
	// buildOracle computes the expected outputs. It runs once, after
	// set-up and outside setup_s: it is the benchmark's cost, not the
	// program's.
	buildOracle() error
	// op runs operation i and keeps its output for check. tr is nil on
	// an untraced op.
	op(i int, tr *opTrace) error
	// check compares the output of the op that just ran with the oracle.
	// It is not timed.
	check(i int) error
	// io is the cumulative page I/O of every buffer pool the workload
	// has used so far.
	io() storage.Stats
	// drain runs once after the last op: it waits for the workload's
	// background clients and returns the operations they attempted and
	// failed. The run's counters are read after it.
	drain() (sideOps, sideFailed int)
	// layers reports the workload's own per-layer metrics after a traced
	// run; it may run extra baseline measurements to do so.
	layers(lr *layerReport) error
	// notes describes the sizes that matter for reading the numbers
	// (pool against data, rows, hits), one line each.
	notes() []string
	close()
}

// layerReport collects the per-layer metrics of a traced run.
type layerReport struct {
	rec *recorder
	m   map[string]float64
}

func newLayerReport(rec *recorder) *layerReport {
	lr := &layerReport{rec: rec, m: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		lr.m[d.name] = 0
	}
	return lr
}

// set records a metric; the harness rejects names the manifest lacks
// when it copies them into the result.
func (lr *layerReport) set(name string, v float64) { lr.m[name] = v }

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	ops      int // 0 = the workload's count for seconds
	traced   bool
	size     sizing
	outDir   string    // where the trace file goes; "" writes none
	log      io.Writer // human-readable progress and per-op failures
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, as stored in result files.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Ops       int                    `json:"ops"`
	TailPct   float64                `json:"tail_percentile"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Unresolved names the metrics this run could not measure
	// meaningfully (wall-clock numbers of concurrent workloads on fewer
	// than two CPUs).
	Unresolved []string `json:"unresolved,omitempty"`
	Notes      []string `json:"notes,omitempty"`
}

// maxLoggedFailures bounds the per-op failure lines; the count is exact
// regardless.
const maxLoggedFailures = 5

func runWorkload(cfg runConfig) (*runResult, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ops := cfg.ops
	if ops == 0 {
		ops = def.ops(cfg.seconds)
	}

	// Set-up runs several times so setup_s is a median, not one sample;
	// the last copy is the one measured.
	var (
		in     *inputs
		inst   instance
		setupS []float64
	)
	for k := 0; k < cfg.size.setups; k++ {
		if inst != nil {
			inst.close()
		}
		// Each copy starts from a collected heap, so the previous copy's
		// garbage is not billed to this one's allocations.
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = genInputs(cfg.seed, cfg.size, ops); err != nil {
			return nil, err
		}
		if inst, err = def.setup(in); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	if err := inst.buildOracle(); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", def.name, err)
	}

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	ioTotal := func() int64 { return inst.io().Total() }

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	io0 := inst.io()
	var (
		plainMs, tracedMs []float64
		busy              time.Duration
		failed            int
	)
	for i := 0; i < ops; i++ {
		// A traced run traces every other op; the untraced ones beside
		// them are the base of bench.trace_overhead_x.
		var (
			tr  *opTrace
			end func()
		)
		if rec != nil && i%2 == 0 {
			id, e := rec.begin("op", i, 0, ioTotal)
			tr, end = &opTrace{rec: rec, op: i, root: id}, e
		}
		t0 := time.Now()
		err := inst.op(i, tr)
		d := time.Since(t0)
		if end != nil {
			end()
		}
		busy += d
		if err == nil {
			err = inst.check(i)
		}
		if err != nil {
			if failed++; failed <= maxLoggedFailures {
				fmt.Fprintf(cfg.log, "%s: op %d failed: %v\n", def.name, i, err)
			}
			continue
		}
		if tr != nil {
			tracedMs = append(tracedMs, d.Seconds()*1e3)
		} else {
			plainMs = append(plainMs, d.Seconds()*1e3)
		}
	}
	sideOps, sideFailed := inst.drain()
	runtime.ReadMemStats(&ms1)
	dio := inst.io().Sub(io0)

	res := &runResult{
		Workload:  def.name,
		Traced:    cfg.traced,
		Ops:       ops,
		Attempted: ops + sideOps,
		Failed:    failed + sideFailed,
		Metrics:   make(map[string]metricValue),
		Notes:     inst.notes(),
	}
	put := func(name string, v float64) {
		d, ok := findMetric(name)
		if !ok {
			panic("bench: metric " + name + " is not in the manifest")
		}
		res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
	}
	perOp := func(v int64) float64 { return float64(v) / float64(ops) }

	if !cfg.traced {
		res.TailPct = tailPercentile(len(plainMs))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		put("setup_s", median(setupS))
		p50 := median(plainMs)
		put("op_ms_p50", p50)
		put("op_tail_x", percentile(plainMs, res.TailPct)/p50)
		put("ops_per_s", float64(len(plainMs))/busy.Seconds())
		put("alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(ops))
		put("peak_rss_mb", rss)
		put("io_ops_per_op", perOp(dio.Total()))
		if def.concurrent && runtime.GOMAXPROCS(0) < 2 {
			res.Unresolved = []string{"op_ms_p50", "op_tail_x", "ops_per_s"}
		}
	} else {
		lr := newLayerReport(rec)
		if err := inst.layers(lr); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		lr.set("storage.logical_reads_per_op", perOp(dio.LogicalReads))
		lr.set("storage.physical_reads_per_op", perOp(dio.PhysicalReads))
		lr.set("storage.physical_writes_per_op", perOp(dio.PhysicalWrites))
		if dio.LogicalReads > 0 {
			lr.set("storage.hit_ratio", 1-float64(dio.PhysicalReads)/float64(dio.LogicalReads))
		}
		// The tail in milliseconds, over traced and untraced ops alike.
		all := append(append([]float64(nil), plainMs...), tracedMs...)
		res.TailPct = tailPercentile(len(all))
		lr.set("bench.op_ms_tail", percentile(all, res.TailPct))
		base := median(plainMs)
		lr.set("bench.untraced_op_ms_p50", base)
		if base > 0 {
			lr.set("bench.trace_overhead_x", median(tracedMs)/base)
		}
		if err := probeLayers(in, lr); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", def.name, err)
		}
		for name, v := range lr.m {
			put(name, v)
		}
		if cfg.outDir != "" {
			if err := writeTrace(cfg, def.name, ops, rec); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// traceFile is what -trace 1 leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Ops      int         `json:"ops"`
	Spans    []span      `json:"spans"`
}

func writeTrace(cfg runConfig, workload string, ops int, rec *recorder) error {
	rec.mu.Lock()
	tf := traceFile{Env: currentEnv(cfg.seed, cfg.seconds), Workload: workload, Ops: ops, Spans: rec.spans}
	b, err := json.Marshal(tf)
	rec.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(cfg.outDir, "trace-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "trace: %d spans -> %s\n", len(tf.Spans), path)
	return nil
}

// printRun writes the run for people: every metric by name with its
// unit, the sample count and the tail percentile that was used.
func printRun(w io.Writer, env environment, r *runResult) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "workload %s (%s): seed %d, %d ops, attempted %d, failed %d, failed_ratio %g\n",
		r.Workload, kind, env.Seed, r.Ops, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	unresolved := make(map[string]bool)
	for _, n := range r.Unresolved {
		unresolved[n] = true
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		switch {
		case unresolved[n]:
			extra = "  unresolved: GOMAXPROCS < 2"
		case n == "op_tail_x" || n == "bench.op_ms_tail":
			extra = fmt.Sprintf("  %s of %d ops", pctName(r.TailPct), r.Ops)
		case n == "op_ms_p50":
			extra = fmt.Sprintf("  n=%d", r.Ops)
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-6s%s\n", n, m.Value, m.Unit, extra)
	}
}

// contractLine is the last line of a single-workload run's standard
// output, in the shape the benchmark driver reads.
func contractLine(r *runResult) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
}

// resultFile is one set of runs taken under one environment; -out
// appends to it and -compare reads it.
type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResult adds one run to the result file at path, creating it on
// first use and refusing to mix runs whose environments do not compare.
func appendResult(path string, env environment, r *runResult) error {
	rf, err := readResultFile(path)
	switch {
	case os.IsNotExist(err):
		rf = &resultFile{Env: env}
	case err != nil:
		return err
	default:
		if why := rf.Env.comparable(env); why != "" {
			return fmt.Errorf("%s holds runs this one cannot join: %s", path, why)
		}
	}
	rf.Runs = append(rf.Runs, r)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}
