package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/astro"
)

// tinySize shrinks the sky and the batches so that every workload runs
// end to end, oracle included, in a fraction of a second.
var tinySize = sizing{
	region:    astro.MustBox(194.9, 195.4, 2.2, 2.7),
	target:    astro.MustBox(195.1, 195.2, 2.4, 2.5),
	fedRegion: astro.MustBox(194.95, 195.35, 2.25, 2.65),
	probes:    32,
	points:    8,
	readSpan:  200,
	loadRows:  500,
	setups:    2,
}

func tinyRun(t *testing.T, workload string, seed int64, traced bool, outDir string) *runResult {
	t.Helper()
	ops := 2 // a traced run traces one and leaves one untraced
	if workload == "casjobs_mixed" {
		ops = 2 * readsPerLoad // two loads happen beside the reads
	}
	res, err := runWorkload(runConfig{
		workload: workload, seed: seed, seconds: 1, ops: ops, traced: traced,
		size: tinySize, outDir: outDir, log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func names(defs []metricDef) map[string]bool {
	out := make(map[string]bool, len(defs))
	for _, d := range defs {
		out[d.name] = true
	}
	return out
}

// exercised lists, per workload, per-layer metrics its traced run must
// find work in: the layers the workload is there to exercise, and the
// layer probes every workload runs.
var exercised = map[string][]string{
	"table1_pipeline":  {"maxbcg.open_ms", "maxbcg.candidates_ms", "maxbcg.spzone_io_ops", "maxbcg.import_alloc_mb", "maxbcg.galaxies_per_s"},
	"partitioned_2way": {"maxbcg.candidates_ms", "cluster.speedup_x", "cluster.node_skew_x", "cluster.duplicated_galaxies_ratio"},
	"sql_mix":          {"sqldb.zonejoin_ms_p50", "sqldb.scanagg_rows_examined_per_returned", "sqldb.sql_over_go_x", "storage.logical_reads_per_op"},
	"casjobs_mixed":    {"casjobs.exec_ms_p50", "casjobs.load_rows_per_s", "storage.reclaim_retired_pages"},
	"fed_sweep":        {"fed.wire_bytes_per_hit", "fed.overhead_x", "fed.worker_sweep_ms_p50", "zone.sweep_col_ms_p50", "sqldb.bulkinsert_rows_per_s"},
}

// TestWorkloads runs every workload both ways at tiny scale. No operation
// may fail its oracle; the metric names that come out must be exactly the
// manifest's sets, nothing missing and nothing extra; the traced run must
// see work in the layers the workload exercises and leave a trace file.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res := tinyRun(t, w.name, 7, traced, dir)
			if res.Failed != 0 || res.Attempted < res.Ops {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayer)
			}
			for n := range res.Metrics {
				if !want[n] {
					t.Errorf("%s traced=%v: emitted %q, which the manifest does not list", w.name, traced, n)
				}
			}
			for n := range want {
				m, ok := res.Metrics[n]
				if !ok {
					t.Errorf("%s traced=%v: manifest metric %q was not emitted", w.name, traced, n)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, n, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, n, m.Value)
				}
			}
			if line, err := contractLine(res); err != nil {
				t.Error(err)
			} else {
				var got map[string]json.RawMessage
				if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
					t.Errorf("%s: contract line %s: %v", w.name, line, err)
				}
			}
			if !traced {
				continue
			}
			for _, n := range exercised[w.name] {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s: %s = %v, want it measured", w.name, n, res.Metrics[n].Value)
				}
			}
			b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) == 0 || tf.Env.Seed != 7 {
				t.Errorf("%s: trace file has %d spans, env %+v: %v", w.name, len(tf.Spans), tf.Env, err)
			}
		}
	}
}

// TestPageCountsRepeat pins the property the exact counts rest on: the
// same seed gives the same page I/O per op, another seed does not.
func TestPageCountsRepeat(t *testing.T) {
	io := func(seed int64) float64 {
		return tinyRun(t, "sql_mix", seed, false, "").Metrics["io_ops_per_op"].Value
	}
	a, b, c := io(3), io(3), io(4)
	if a != b {
		t.Errorf("same seed, different page I/O: %v vs %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same page I/O %v", a)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifest holds BENCHMARK.json to the program's tables, byte for
// byte, and the tables to the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(want))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := make(map[string]bool)
	unique := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		unique(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") || w.why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.ops(runSeconds) < minOps {
			t.Errorf("%s: %d ops", w.name, w.ops(runSeconds))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		unique(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}
	var setup *metricDef
	for i, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	print := func(seed int64) []byte {
		in, err := genInputs(seed, tinySize, 12)
		if err != nil {
			t.Fatal(err)
		}
		b, err := in.fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := print(5), print(5), print(6)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 5 and 6 generated the same inputs")
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 75: 75, 99: 99, 99.9: 100, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g of 1..100 = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	for n, want := range map[int]float64{1: 50, 19: 50, 39: 50, 40: 75, 49: 75, 50: 80, 60: 80, 99: 80,
		100: 90, 200: 95, 999: 95, 1000: 99, 8400: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tail percentile of %d samples = p%g, want p%g", n, got, want)
		}
		// the rule itself: at least ten samples lie beyond the percentile
		if want > 50 && float64(n)*(100-want)/100 < 10-1e-9 {
			t.Errorf("p%g of %d samples has fewer than ten beyond it", want, n)
		}
	}
	if pctName(99.9) != "p99.9" || pctName(75) != "p75" {
		t.Errorf("pctName: %s %s", pctName(99.9), pctName(75))
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the form the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Start: 25, End: 35},  // grandchild: only 3's business
		{ID: 6, Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	pages := int64(0)
	root, end := rec.begin("op", 7, 0, func() int64 { return pages })
	tr := &opTrace{rec: rec, op: 7, root: root}
	endChild := tr.span("layer.call", func() int64 { return pages })
	pages += 5
	endChild()
	pages += 2
	end()
	var untraced *opTrace
	untraced.span("layer.call", nil)() // must be a no-op
	if len(rec.spans) != 2 {
		t.Fatalf("%d spans recorded, want 2", len(rec.spans))
	}
	op, child := rec.spans[0], rec.spans[1]
	if child.Parent != op.ID || child.Op != 7 || child.IOOps != 5 || op.IOOps != 7 {
		t.Errorf("op %+v child %+v", op, child)
	}
	if child.Start < op.Start || child.End > op.End || child.End < child.Start {
		t.Errorf("child [%d, %d] not inside op [%d, %d]", child.Start, child.End, op.Start, op.End)
	}
}

func resultSetFile(t *testing.T, dir, name string, env environment, opMs []float64, failed int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	for _, v := range opMs {
		r := &runResult{Workload: "sql_mix", Ops: 10, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{
			"op_ms_p50":            {Value: v, Unit: "ms"},
			"ops_per_s":            {Value: 1000 / v, Unit: "1/s"},
			"sqldb.scanagg_ms_p50": {Value: v / 2, Unit: "ms"},
		}}
		if err := appendResult(path, env, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	env := environment{Seed: 1, Seconds: 14, GOMAXPROCS: 2}
	steady := []float64{100, 101, 99, 100.5, 99.5}
	base := resultSetFile(t, dir, "base.json", env, steady, 0)

	compare := func(paths ...string) (string, error) {
		var out bytes.Buffer
		err := compareFiles(&out, paths)
		return out.String(), err
	}
	if out, err := compare(base, resultSetFile(t, dir, "same.json", env, []float64{101, 100, 99, 102, 100}, 0)); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out)
	} else if !strings.Contains(out, verdictOK) || strings.Contains(out, verdictRegression) {
		t.Errorf("A/A comparison:\n%s", out)
	}
	out, err := compare(base, resultSetFile(t, dir, "slow.json", env, []float64{150, 151, 149, 150, 152}, 0))
	if err == nil || strings.Count(out, verdictRegression) != 2 { // op_ms_p50 and ops_per_s; the per-layer metric has no bound
		t.Errorf("a 50%% slowdown must regress both bounded metrics: %v\n%s", err, out)
	}
	out, err = compare(base, resultSetFile(t, dir, "noisy.json", env, []float64{60, 140, 100, 50, 150}, 0))
	if err != nil || !strings.Contains(out, verdictUnresolved) {
		t.Errorf("runs noisier than the bound must come out unresolved: %v\n%s", err, out)
	}
	if out, err = compare(base, resultSetFile(t, dir, "fast.json", env, []float64{50, 51, 49, 50, 50}, 0)); err != nil || !strings.Contains(out, verdictImproved) {
		t.Errorf("a 2x speedup: %v\n%s", err, out)
	}
	if out, err = compare(base, resultSetFile(t, dir, "wrong.json", env, steady, 1)); err == nil || !strings.Contains(out, "failed_ratio") {
		t.Errorf("a higher failed ratio must fail the comparison: %v\n%s", err, out)
	}
	for _, other := range []environment{
		{Seed: 2, Seconds: 14, GOMAXPROCS: 2},
		{Seed: 1, Seconds: 20, GOMAXPROCS: 2},
		{Seed: 1, Seconds: 14, GOMAXPROCS: 1},
	} {
		if _, err := compare(base, resultSetFile(t, dir, "other.json", other, steady, 0)); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("comparison across %+v must be refused, got %v", other, err)
		}
		os.Remove(filepath.Join(dir, "other.json"))
	}
	// and a result file refuses runs from another environment
	if err := appendResult(base, environment{Seed: 9, Seconds: 14, GOMAXPROCS: 2}, &runResult{Workload: "sql_mix"}); err == nil {
		t.Error("appendResult mixed two seeds in one file")
	}
}
