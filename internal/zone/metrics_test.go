package zone

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/telemetry"
)

// withSweepMetrics attaches a fresh registry for one test and detaches it
// afterwards so the package's other tests (and benchmarks) keep running
// uninstrumented.
func withSweepMetrics(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	t.Cleanup(func() { sweepMet.Store(nil) })
	return reg
}

// TestSweepMetricsCounters checks the sweep-boundary accounting: one
// Sweep call bumps sweeps/probes/groups once, hits match what fn saw, and
// sweeps at every Workers setting credit worker busy time.
func TestSweepMetricsCounters(t *testing.T) {
	reg := withSweepMetrics(t)

	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", seamGalaxies(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var probes []Probe
	for _, p := range seamProbes() {
		probes = append(probes, Probe{Ra: p[0], Dec: p[1], R: p[2]})
	}

	hits := 0
	fn := func(int, ZoneRow) { hits++ }
	if err := Sweep(context.Background(), TableSource(zt, 0.25), probes, SweepOptions{Workers: 1}, fn); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("fixture produced no hits")
	}
	if err := Sweep(context.Background(), TableSource(zt, 0.25), probes, SweepOptions{Workers: 4}, fn); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"zone_sweeps_total 2",
		fmt.Sprintf("zone_probes_total %d", 2*len(probes)),
		fmt.Sprintf("zone_hits_total %d", hits),
		"zone_sweep_seconds_count 2",
		"zone_sweep_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	groupRe := regexp.MustCompile(`zone_groups_total (\d+)`)
	m := groupRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("zone_groups_total missing:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Errorf("zone_groups_total = %d, want at least one group per sweep", n)
	}
	busyRe := regexp.MustCompile(`zone_worker_busy_seconds_total ([0-9.e+-]+)`)
	bm := busyRe.FindStringSubmatch(out)
	if bm == nil {
		t.Fatalf("zone_worker_busy_seconds_total missing:\n%s", out)
	}
	if v, _ := strconv.ParseFloat(bm[1], 64); v <= 0 {
		t.Errorf("worker busy seconds = %v, want > 0", v)
	}
}

// TestSweepMetricsCountErrors checks a cancelled sweep lands in the error
// counter while still counting as a sweep.
func TestSweepMetricsCountErrors(t *testing.T) {
	reg := withSweepMetrics(t)

	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", seamGalaxies(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probes := []Probe{{Ra: 0.05, Dec: 1.0, R: 0.3}, {Ra: 12, Dec: 1, R: 0.3}}
	if err := Sweep(ctx, TableSource(zt, 0.25), probes, SweepOptions{Workers: 1}, func(int, ZoneRow) {}); err == nil {
		t.Fatal("cancelled sweep returned nil")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"zone_sweeps_total 1", "zone_sweep_errors_total 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeTimesRealSweep pins the trace surface end to end: a
// real zone-join query under EXPLAIN ANALYZE reports a non-zero wall time
// on the ZoneSweepJoin operator (and a timing annotation on every line).
func TestExplainAnalyzeTimesRealSweep(t *testing.T) {
	var probes []Probe
	for _, p := range seamProbes() {
		probes = append(probes, Probe{Ra: p[0], Dec: p[1], R: p[2]})
	}
	db := sqlJoinFixture(t, seamGalaxies(), 0.25, probes, true)
	const query = `SELECT p.pid, n.objID, n.distance FROM Probes p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n`
	analyzed, err := db.Explain("EXPLAIN ANALYZE " + query)
	if err != nil {
		t.Fatal(err)
	}
	msRe := regexp.MustCompile(`\((\d+\.\d{3}) ms\)`)
	for _, line := range strings.Split(analyzed, "\n") {
		tm := msRe.FindStringSubmatch(line)
		if tm == nil {
			// A ZoneSweepJoin reads the zone table's segments itself, so its
			// scan child never executes: only executed operators (the ones
			// with an "actual rows" bracket) carry wall time.
			if strings.Contains(line, "actual") {
				t.Errorf("executed operator line missing wall time: %q", line)
			}
			continue
		}
		if strings.Contains(line, "ZoneSweepJoin") {
			if v, _ := strconv.ParseFloat(tm[1], 64); v <= 0 {
				t.Errorf("ZoneSweepJoin wall time = %v ms, want > 0:\n%s", v, analyzed)
			}
		}
	}
	if !strings.Contains(analyzed, "ZoneSweepJoin") {
		t.Fatalf("plan did not lower to ZoneSweepJoin:\n%s", analyzed)
	}
}
