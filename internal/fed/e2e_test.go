package fed_test

// End-to-end federation test with real processes: builds cmd/gridworkerd,
// boots a three-worker fleet on loopback ports sharing a catalog file,
// runs the full MaxBCG pipeline through the coordinator, and requires the
// result of a centralised single-node run — then SIGTERMs the fleet and
// requires clean exits. This is the acceptance test for the daemon
// surface; everything in-process is covered by the other suites.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/cluster"
	"repro/internal/fed"
	"repro/internal/maxbcg"
)

// shortest renders a float in shortest round-trip form so the worker's
// flag parse reproduces the coordinator's value bit for bit.
func shortest(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestEndToEndFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "gridworkerd")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/gridworkerd")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build gridworkerd: %v\n%s", err, out)
	}

	survey := astro.MustBox(194, 196.3, 1.0, 3.4)
	cat := genCatalog(t, survey, 77, 1500, 4)
	catPath := filepath.Join(tmp, "sky.cat")
	if err := cat.SaveFile(catPath); err != nil {
		t.Fatal(err)
	}

	target := astro.MustBox(194.4, 195.9, 1.4, 3.0)
	params := maxbcg.DefaultParams()
	imp, err := fed.ImportBox(target, params.BufferDeg, cat.Region)
	if err != nil {
		t.Fatal(err)
	}
	regionStr := fmt.Sprintf("%s:%s:%s:%s",
		shortest(imp.MinRa), shortest(imp.MaxRa), shortest(imp.MinDec), shortest(imp.MaxDec))
	cutsStr := fed.FormatCuts(fedTestTopo(imp))
	// Both sides parse the same strings, so zone ownership agrees bitwise.
	topo, err := fed.ParseCuts(imp, cutsStr)
	if err != nil {
		t.Fatal(err)
	}

	// Reserve loopback ports, then hand them to the workers.
	n := len(topo.Stripes)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	peers := make([]string, n)
	for i, a := range addrs {
		peers[i] = "http://" + a
		topo.Stripes[i].Endpoints = []string{peers[i]}
	}

	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin,
			"-index", strconv.Itoa(i),
			"-addr", addrs[i],
			"-region", regionStr,
			"-cuts", cutsStr,
			"-peers", strings.Join(peers, ","),
			"-cat", catPath,
		)
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		procs[i] = cmd
		t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	}

	c, err := fed.NewCoordinator(topo, fed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("fleet never became ready: %v", err)
	}

	central, err := cluster.Run(cat, target, cluster.Config{Nodes: 1, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	want := central.Nodes[0].Result
	if len(want.Clusters) == 0 {
		t.Fatal("centralised run found no clusters; test is vacuous")
	}
	got, _, err := fed.RunMaxBCG(ctx, c, cat, target, fed.RunConfig{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Candidates, want.Candidates) ||
		!reflect.DeepEqual(got.Clusters, want.Clusters) ||
		!reflect.DeepEqual(got.Members, want.Members) {
		t.Errorf("federated result differs from centralised: %s vs %s", got.Summary(), want.Summary())
	}

	// The real daemons expose the fed_* metric families over the wire.
	resp, err := http.Get(peers[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"fed_worker_ready 1", "fed_worker_sweeps_total", "fed_transfer_bytes_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("worker /metrics missing %q", family)
		}
	}

	// SIGTERM drains the fleet; every process must exit cleanly.
	for i, p := range procs {
		if err := p.Process.Signal(syscall.SIGTERM); err != nil {
			t.Errorf("signal worker %d: %v", i, err)
		}
	}
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			t.Errorf("worker %d did not exit cleanly: %v", i, err)
		}
	}
}
