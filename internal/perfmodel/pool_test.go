package perfmodel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// burn spins the calling thread for about d of CPU time.
func burn(d time.Duration) {
	start := ThreadCPU()
	x := 1.0
	for ThreadCPU()-start < d {
		for i := 0; i < 10_000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	if x == 0 {
		panic("unreachable")
	}
}

// TestRunPoolRunsEveryIndexOnce pins the claim loop on a clean run: every
// index runs exactly once, on a worker numbered below min(workers, n), and
// a pool of fewer than one worker runs as one.
func TestRunPoolRunsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ workers, n, maxWorkers int }{
		{4, 100, 4}, {8, 3, 3}, {1, 10, 1}, {0, 10, 1}, {-2, 5, 1}, {4, 0, 0},
	} {
		runs := make([]atomic.Int32, c.n)
		var badWorker atomic.Int32
		_, err := RunPool(c.workers, c.n, func(w, i int) error {
			if w < 0 || w >= c.maxWorkers {
				badWorker.Store(int32(w) + 1)
			}
			runs[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", c.workers, c.n, err)
		}
		if w := badWorker.Load(); w != 0 {
			t.Errorf("workers=%d n=%d: task ran on worker %d", c.workers, c.n, w-1)
		}
		for i := range runs {
			if r := runs[i].Load(); r != 1 {
				t.Errorf("workers=%d n=%d: index %d ran %d times", c.workers, c.n, i, r)
			}
		}
	}
}

// TestRunPoolReturnsLowestFailure pins which error comes back: the lowest
// failed index's, even when a higher index fails first, because every
// index below a claimed one was claimed before it and runs to completion.
func TestRunPoolReturnsLowestFailure(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for rep := 0; rep < 5; rep++ {
		_, err := RunPool(4, 100, func(_, i int) error {
			switch i {
			case 30:
				time.Sleep(20 * time.Millisecond) // let 31 fail first
				return errAt(i)
			case 31, 60:
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != errAt(30).Error() {
			t.Fatalf("got %v, want %v", err, errAt(30))
		}
	}
}

// TestRunPoolStopsClaimingAfterFailure pins that a failure ends the
// claims: one worker runs nothing past the failed index. Four workers may
// run a few more, since the others keep claiming until the failure is
// stored and the scheduler decides when that is, so they are only held to
// stopping far short of the end: a pool that kept claiming would run
// every one of the 9,994 later indices, at a millisecond each.
func TestRunPoolStopsClaimingAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	const failAt, n = 5, 10_000
	for _, workers := range []int{1, 4} {
		var after atomic.Int32
		_, err := RunPool(workers, n, func(_, i int) error {
			switch {
			case i == failAt:
				return boom
			case i > failAt:
				after.Add(1)
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, boom)
		}
		limit := int32(0)
		if workers > 1 {
			limit = (n - failAt - 1) / 10
		}
		if got := after.Load(); got > limit {
			t.Errorf("workers=%d: %d indices past the failed one ran, want at most %d", workers, got, limit)
		}
	}
}

// TestRunPoolReportsWorkerCPU pins the CPU a pool returns: each worker's
// goroutine stays pinned to its OS thread, so the thread clock a task
// reads only moves forward across the tasks it runs, and the pool's total
// is at least the sum of what its tasks burned.
func TestRunPoolReportsWorkerCPU(t *testing.T) {
	var burned atomic.Int64
	cpu, err := RunPool(2, 8, func(_, _ int) error {
		start := ThreadCPU()
		burn(2 * time.Millisecond)
		burned.Add(int64(ThreadCPU() - start))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := time.Duration(burned.Load()); b <= 0 || cpu < b {
		t.Errorf("pool reported %v of worker CPU, its tasks burned %v", cpu, b)
	}
}
