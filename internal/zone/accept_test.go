package zone

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/storage"
)

// acceptCut is the pushed-down predicate of the tests below: it reads the
// probe index and every argument, so a sweeper that passed the wrong row's
// photometry, or the wrong probe, changes the outcome.
func acceptCut(pi int, objID int64, i, gr, ri float64) bool {
	return i < 1.3 && gr > 0.15 && ri < 0.9 && objID%3 != int64(pi%3)
}

// record runs one sweep and returns fn's exact call sequence.
func record(ctx context.Context, src Source, probes []Probe, opts SweepOptions) ([]seqCall, error) {
	var calls []seqCall
	err := Sweep(ctx, src, probes, opts, func(pi int, zr ZoneRow) {
		calls = append(calls, seqCall{probe: pi, row: zr})
	})
	return calls, err
}

// requirePrefix fails unless got is a prefix of want, call for call, with
// Distance compared by bit pattern. full additionally requires equal length.
func requirePrefix(t *testing.T, got, want []seqCall, full bool) {
	t.Helper()
	if len(got) > len(want) || (full && len(got) != len(want)) {
		t.Fatalf("emitted %d calls, want %d (full=%v)", len(got), len(want), full)
	}
	for i := range got {
		if got[i] != want[i] || math.Float64bits(got[i].row.Distance) != math.Float64bits(want[i].row.Distance) {
			t.Fatalf("call %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

type namedSource struct {
	name string
	src  Source
}

// acceptSources installs the seam-straddling sweep fixture once and
// returns its row and columnar access paths.
func acceptSources(t *testing.T) (*sqldb.DB, []Probe, []namedSource) {
	t.Helper()
	gals, height, probes := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	return db, probes, []namedSource{{"Rows", Rows(zt, height)}, {"Columnar", Columnar(zt.Columnar(), height)}}
}

// TestSweepAcceptEmitsAcceptedSubsequence pins the pushdown contract: with
// Accept set, fn receives exactly the Accept-true subsequence of the
// unfiltered call sequence — same order, same Distance bits — from both
// sources at every worker count, and Accept is consulted exactly once per
// in-radius (probe, row) pair, never for a row the chord test rejects.
// Accept runs on the workers: run under -race.
func TestSweepAcceptEmitsAcceptedSubsequence(t *testing.T) {
	_, probes, sources := acceptSources(t)
	ctx := context.Background()
	for _, s := range sources {
		t.Run(s.name, func(t *testing.T) {
			all, err := record(ctx, s.src, probes, SweepOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var want []seqCall
			for _, c := range all {
				if acceptCut(c.probe, c.row.ObjID, c.row.I, c.row.Gr, c.row.Ri) {
					want = append(want, c)
				}
			}
			if len(want) == 0 || len(want) == len(all) {
				t.Fatalf("fixture does not discriminate: %d of %d hits accepted", len(want), len(all))
			}
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
					var asked atomic.Int64
					got, err := record(ctx, s.src, probes, SweepOptions{Workers: workers,
						Accept: func(pi int, objID int64, i, gr, ri float64) bool {
							asked.Add(1)
							return acceptCut(pi, objID, i, gr, ri)
						}})
					if err != nil {
						t.Fatal(err)
					}
					requirePrefix(t, got, want, true)
					if n := asked.Load(); n != int64(len(all)) {
						t.Errorf("Accept consulted %d times, want once per in-radius hit (%d)", n, len(all))
					}
					// A predicate that keeps everything is the unfiltered sweep.
					got, err = record(ctx, s.src, probes, SweepOptions{Workers: workers,
						Accept: func(int, int64, float64, float64, float64) bool { return true }})
					if err != nil {
						t.Fatal(err)
					}
					requirePrefix(t, got, all, true)
				})
			}
		})
	}
}

// TestSweepAcceptKeepsErrorSemantics pins that the pushdown leaves the
// failure contract alone: a cancelled context or a failed page fetch stops
// the sweep with that error, and fn has seen a clean prefix of the
// filtered sequence — never a sequence with a hole.
func TestSweepAcceptKeepsErrorSemantics(t *testing.T) {
	db, probes, sources := acceptSources(t)
	for _, s := range sources {
		want, err := record(context.Background(), s.src, probes, SweepOptions{Workers: 1, Accept: acceptCut})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers-%d", s.name, workers), func(t *testing.T) {
				opts := SweepOptions{Workers: workers, Accept: acceptCut}

				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				got, err := record(ctx, s.src, probes, opts)
				if !errors.Is(err, context.Canceled) || len(got) != 0 {
					t.Fatalf("pre-cancelled sweep: %d calls, err %v", len(got), err)
				}

				ctx, cancel = context.WithCancel(context.Background())
				defer cancel()
				var calls []seqCall
				err = Sweep(ctx, s.src, probes, opts, func(pi int, zr ZoneRow) {
					calls = append(calls, seqCall{probe: pi, row: zr})
					cancel()
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel from fn: err %v", err)
				}
				if len(calls) == 0 || len(calls) >= len(want) {
					t.Fatalf("cancel from fn: %d of %d calls emitted", len(calls), len(want))
				}
				requirePrefix(t, calls, want, false)

				boom := errors.New("injected fetch fault")
				var fetches atomic.Int64
				db.Pool().SetFaultHooks(&storage.FaultHooks{Fetch: func() error {
					if fetches.Add(1) > 40 {
						return boom
					}
					return nil
				}})
				got, err = record(context.Background(), s.src, probes, opts)
				db.Pool().SetFaultHooks(nil)
				if !errors.Is(err, boom) {
					t.Fatalf("faulted sweep: err %v", err)
				}
				if len(got) >= len(want) {
					t.Fatalf("faulted sweep emitted all %d calls", len(got))
				}
				requirePrefix(t, got, want, false)
			})
		}
	}
}
