package zone

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sqldb"
)

// TestBatchSearchContextPreCancelled pins that an already-cancelled
// context stops a sequential sweep before it visits any zone.
func TestBatchSearchContextPreCancelled(t *testing.T) {
	gals, height, probes := parallelFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits := 0
	err = Sweep(ctx, TableSource(zt, height), probes, SweepOptions{Workers: 1}, func(int, ZoneRow) { hits++ })
	if err == nil {
		t.Fatal("cancelled sweep completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if hits != 0 {
		t.Fatalf("cancelled sweep still emitted %d rows", hits)
	}
}

// TestBatchSearchContextCancelMidSweep cancels from inside the emit
// callback: the sweep must stop at the next per-zone checkpoint instead of
// visiting the rest of the windows.
func TestBatchSearchContextCancelMidSweep(t *testing.T) {
	gals, height, probes := parallelFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}

	var total int
	if err := Sweep(context.Background(), TableSource(zt, height), probes, SweepOptions{Workers: 1}, func(int, ZoneRow) { total++ }); err != nil {
		t.Fatal(err)
	}
	if total < 2 {
		t.Fatalf("fixture too small: %d hits", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	hits := 0
	err = Sweep(ctx, TableSource(zt, height), probes, SweepOptions{Workers: 1}, func(int, ZoneRow) {
		hits++
		if hits == 1 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("sweep ran to completion after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if hits >= total {
		t.Fatalf("sweep emitted all %d rows despite cancellation", total)
	}
}

// TestParallelBatchSearchContextCancelled pins that a cancelled context
// aborts the sweep at any Workers setting, through both sources.
func TestParallelBatchSearchContextCancelled(t *testing.T) {
	gals, height, probes := parallelFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	err = Sweep(ctx, TableSource(zt, height), probes, SweepOptions{Workers: 4}, func(int, ZoneRow) {})
	if err == nil {
		t.Fatal("cancelled TableSource sweep completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TableSource sweep error %v does not wrap context.Canceled", err)
	}

	ct := zt.Columnar()
	if ct == nil {
		t.Fatal("fixture zone table has no column segments")
	}
	err = Sweep(ctx, Columnar(ct, height), probes, SweepOptions{Workers: 4}, func(int, ZoneRow) {})
	if err == nil {
		t.Fatal("cancelled Columnar sweep completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("columnar sweep error %v does not wrap context.Canceled", err)
	}
}

// TestParallelBatchSearchContextClean pins that a live context changes
// nothing: the sweep still emits the sequence that matches SearchTable
// and BruteForce.
func TestParallelBatchSearchContextClean(t *testing.T) {
	gals, height, probes := parallelFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	got, err := record(context.Background(), TableSource(zt, height), probes, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireOracles(t, zt, gals, height, probes, got)
}
