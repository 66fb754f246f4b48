package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// runSeconds is BENCHMARK.json's run_seconds: the --seconds every
// workload's operation count is scaled to.
const runSeconds = 14

// minOps keeps a tail percentile with ten samples beyond it (p75 of 40)
// in existence however short the run.
const minOps = 40

// A workloadDef names one workload. baseOps is its operation count at
// 20 seconds, chosen so that the run lasts about that long at the commit
// that defined the benchmark; --seconds scales it linearly. Counts — not
// a stopwatch — end the loop, so two runs with the same arguments execute
// the same operations and their page-I/O counts repeat exactly.
type workloadDef struct {
	name    string
	baseOps int
	why     string
	// concurrent workloads need two CPUs for their wall-clock numbers
	// to mean anything; with GOMAXPROCS < 2 those are marked unresolved.
	concurrent bool
	setup      func(in *inputs) (instance, error)
}

func (w workloadDef) ops(seconds int) int {
	n := int(math.Round(float64(w.baseOps) * float64(seconds) / 20))
	return max(n, minOps)
}

// workloads lists the benchmark's workloads in the order they run.
var workloads = []workloadDef{
	{name: "table1_pipeline", baseOps: 64, setup: setupTable1,
		why: "Table 1 single-server MaxBCG run, pool holds the working set: maxbcg search and sqldb/storage bulk load do the work, SQL planning and the wire none; 45 ops at 14 s"},
	{name: "partitioned_2way", baseOps: 80, concurrent: true, setup: setupPartitioned,
		why: "Table 1 partitioned half: two nodes in parallel with duplicated buffers and dedupe, so a single-thread gain that costs memory bandwidth or a shared lock shows as a loss; 56 ops at 14 s"},
	{name: "sql_mix", baseOps: 660, setup: setupSQLMix,
		why: "ad-hoc SQL (zone join, scan aggregate, point lookups) on a pool a fraction of the data: sqldb plan/execute and storage eviction dominate, maxbcg is bypassed; 462 rounds at 14 s"},
	{name: "casjobs_mixed", baseOps: 12000, concurrent: true, setup: setupCasjobs,
		why: "CasJobs quick reads beside long SELECT INTO loads at a fixed 20:1 mix: a load speedup that stalls readers or a reclamation leak shows only here; 8400 reads at 14 s"},
	{name: "fed_sweep", baseOps: 170, concurrent: true, setup: setupFedSweep,
		why: "federated zone sweep over two loopback stripe workers: fed encode/decode and the socket do most of the work, maxbcg and the planner none; 119 ops at 14 s"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// A metricDef is one line of BENCHMARK.json. bound applies to end-to-end
// metrics only: the share of the baseline median by which the metric may
// worsen before the comparer calls it a regression.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the system sees, measured with tracing off
// and reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_tail_x", "ratio", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"io_ops_per_op", "pages", "lower", 0.05},
}

// maxbcgSteps are the spans the traced table1_pipeline op is cut into,
// in call order: opening the database (pool, schema, k-correction table)
// and the six pipeline calls. Together they cover the whole op.
var maxbcgSteps = []string{"open", "import", "spzone", "candidates", "clusters", "members", "result"}

// perLayer is every single-layer metric, reported by the traced run only.
// A workload that bypasses a layer reports that layer's metrics as 0: the
// layer did no work there, which is the "predicted not to move" half of
// the interaction table in README.md.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better})
	}
	for _, s := range maxbcgSteps {
		add("maxbcg."+s+"_ms", "ms", "lower")
		add("maxbcg."+s+"_io_ops", "pages", "lower")
		add("maxbcg."+s+"_alloc_mb", "MB", "lower")
	}
	add("maxbcg.galaxies_per_s", "1/s", "higher")
	add("sqldb.bulkinsert_rows_per_s", "1/s", "higher")
	add("colstore.build_rows_per_s", "1/s", "higher")
	add("colstore.pages_per_sweep", "pages", "lower")
	add("zone.sweep_col_ms_p50", "ms", "lower")
	add("zone.sweep_row_ms_p50", "ms", "lower")
	add("zone.hits_per_s", "1/s", "higher")
	add("zone.sweep_w2_speedup_x", "ratio", "higher")
	for _, c := range sqlClasses {
		add("sqldb."+c+"_ms_p50", "ms", "lower")
		add("sqldb."+c+"_rows_examined_per_returned", "ratio", "lower")
	}
	add("sqldb.go_sweep_ms_p50", "ms", "lower")
	add("sqldb.sql_over_go_x", "ratio", "lower")
	add("storage.logical_reads_per_op", "pages", "lower")
	add("storage.physical_reads_per_op", "pages", "lower")
	add("storage.physical_writes_per_op", "pages", "lower")
	add("storage.hit_ratio", "ratio", "higher")
	add("storage.reclaim_retired_pages", "pages", "lower")
	add("storage.reclaim_leaked_pages", "pages", "lower")
	add("storage.reclaim_pending_end", "pages", "lower")
	add("casjobs.queue_wait_ms_p50", "ms", "lower")
	add("casjobs.exec_ms_p50", "ms", "lower")
	add("casjobs.read_ms_p99_during_load", "ms", "lower")
	add("casjobs.read_ms_p99_idle", "ms", "lower")
	add("casjobs.rejected", "count", "lower")
	add("casjobs.load_rows_per_s", "1/s", "higher")
	add("cluster.single_node_ms_p50", "ms", "lower")
	add("cluster.speedup_x", "ratio", "higher")
	add("cluster.duplicated_galaxies_ratio", "ratio", "lower")
	add("cluster.node_skew_x", "ratio", "lower")
	add("fed.probe_bytes_out", "B", "lower")
	add("fed.hit_bytes_in", "B", "lower")
	add("fed.wire_bytes_per_hit", "B", "lower")
	add("fed.worker_sweep_ms_p50", "ms", "lower")
	add("fed.wire_ms_p50", "ms", "lower")
	add("fed.local_sweep_ms_p50", "ms", "lower")
	add("fed.overhead_x", "ratio", "lower")
	add("fed.retries", "count", "lower")
	add("fed.failovers", "count", "lower")
	add("bench.op_ms_tail", "ms", "lower")
	add("bench.untraced_op_ms_p50", "ms", "lower")
	add("bench.trace_overhead_x", "ratio", "lower")
	return out
}

func findMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// at the root of the repo and the program cannot drift apart: the test
// compares them.
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render manifest: %w", err)
	}
	return append(b, '\n'), nil
}
