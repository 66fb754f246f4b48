package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrentExact is the counter property test: G goroutines,
// each adding random deltas to one counter; the final Value must equal
// the exact sum regardless of interleaving. Run under -race in CI.
func TestCounterConcurrentExact(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	const goroutines, adds = 8, 2000
	want := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var sum int64
			for i := 0; i < adds; i++ {
				d := rng.Int63n(100)
				c.Add(d)
				sum += d
			}
			want[g] = sum
		}(g)
	}
	wg.Wait()
	var total int64
	for _, w := range want {
		total += w
	}
	if got := c.Value(); got != total {
		t.Fatalf("counter lost updates: got %d want %d", got, total)
	}

	// Plain Add and Inc land in the same total.
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != total+6 {
		t.Fatalf("Add/Inc: got %d want %d", got, total+6)
	}
}

// TestHistogramConcurrent pins that count and sum are exact under
// concurrent Observe, and that quantile estimates land inside the right
// bucket.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_latency_seconds", "latency", ExpBuckets(0.001, 2, 12))
	const goroutines, obs = 8, 2000
	var wg sync.WaitGroup
	sums := make([]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var sum float64
			for i := 0; i < obs; i++ {
				v := rng.Float64() * 0.1
				h.Observe(v)
				sum += v
			}
			sums[g] = sum
		}(g)
	}
	wg.Wait()
	if got, want := h.Count(), int64(goroutines*obs); got != want {
		t.Fatalf("count: got %d want %d", got, want)
	}
	var want float64
	for _, s := range sums {
		want += s
	}
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum: got %g want %g", got, want)
	}
	// Uniform on [0, 0.1): the true median is ~0.05 and p99 ~0.099; with
	// doubling buckets the interpolated estimates must land within the
	// covering bucket's span.
	if p50 := h.Quantile(0.5); p50 < 0.032 || p50 > 0.064 {
		t.Errorf("p50 out of bucket range: %g", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.064 || p99 > 0.128 {
		t.Errorf("p99 out of bucket range: %g", p99)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile: got %g want 0", q)
	}
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(100) // +Inf bucket
	if q := h.Quantile(1); q != 4 {
		t.Errorf("top-bucket quantile reports the last bound: got %g", q)
	}
	if q := h.Quantile(0.01); q <= 0 || q > 1 {
		t.Errorf("low quantile outside first bucket: %g", q)
	}
}

// TestPrometheusExposition golden-checks the text format end to end:
// HELP/TYPE headers, label escaping, sorted families and children,
// cumulative histogram buckets, and func metrics sampled at scrape time.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zz_last_total", "sorts last").Add(1)
	v := r.NewCounterVec("jobs_total", "jobs by queue", "queue", "status")
	v.With("quick", "ok").Add(3)
	v.With("long", `we"ird\q`).Add(1)
	g := r.NewGauge("depth", "queue depth")
	g.Set(7)
	live := int64(2)
	r.NewGaugeFunc("live", "live tickets", func() float64 { return float64(live) })
	h := r.NewHistogram("wait_seconds", "queue wait", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP depth queue depth
# TYPE depth gauge
depth 7
# HELP jobs_total jobs by queue
# TYPE jobs_total counter
jobs_total{queue="long",status="we\"ird\\q"} 1
jobs_total{queue="quick",status="ok"} 3
# HELP live live tickets
# TYPE live gauge
live 2
# HELP wait_seconds queue wait
# TYPE wait_seconds histogram
wait_seconds_bucket{le="0.5"} 1
wait_seconds_bucket{le="1"} 2
wait_seconds_bucket{le="+Inf"} 3
wait_seconds_sum 10
wait_seconds_count 3
# HELP zz_last_total sorts last
# TYPE zz_last_total counter
zz_last_total 1
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Func metrics read live state at every scrape.
	live = 5
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nlive 5\n") {
		t.Fatalf("func metric not sampled at scrape:\n%s", b.String())
	}
}

// TestRegistryReuseAndConflicts pins the registration contract:
// same-shape re-registration returns the same family, shape conflicts
// panic, and invalid names panic.
func TestRegistryReuseAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x")
	if b := r.NewCounter("x_total", "x"); a != b {
		t.Fatal("re-registration returned a different counter")
	}
	mustPanic(t, "type conflict", func() { r.NewGauge("x_total", "x") })
	mustPanic(t, "label conflict", func() { r.NewCounterVec("x_total", "x", "q") })
	mustPanic(t, "bad name", func() { r.NewCounter("1bad", "x") })
	mustPanic(t, "bad label", func() { r.NewCounterVec("ok_total", "x", "bad-label") })
	v := r.NewCounterVec("y_total", "y", "a")
	mustPanic(t, "label arity", func() { v.With("one", "two") })
}

// TestVecConcurrentWith hammers CounterVec.With from many goroutines to
// prove child creation is race-free and children are shared.
func TestVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("hits_total", "hits", "shard")
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With("s0").Inc()
			}
		}(g)
	}
	wg.Wait()
	if got := v.With("s0").Value(); got != goroutines*1000 {
		t.Fatalf("vec child lost updates: got %d", got)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr Tracer
	sp := tr.Start("job", "t1")
	if sp != nil {
		t.Fatal("span allocated with no sink attached")
	}
	// All methods must be no-ops on nil.
	sp.Event("queued")
	sp.SetAttr("user", "maria")
	sp.End()

	sink := tr.Attach(2)
	for i, id := range []string{"a", "b", "c"} {
		s := tr.Start("job", id)
		if s == nil {
			t.Fatal("span nil with sink attached")
		}
		s.Event("run")
		s.SetAttr("n", string(rune('0'+i)))
		s.End()
	}
	recent := sink.Recent()
	if len(recent) != 2 || recent[0].ID != "b" || recent[1].ID != "c" {
		t.Fatalf("ring sink kept wrong spans: %+v", recent)
	}
	if recent[1].Duration < 0 || len(recent[1].Events) != 1 {
		t.Fatalf("span record incomplete: %+v", recent[1])
	}

	tr.Attach(0)
	if tr.Start("job", "d") != nil {
		t.Fatal("detach did not disable span allocation")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}
