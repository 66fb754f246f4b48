// Package perfmodel provides the measurement and normalisation machinery
// behind the reproduction's benchmark tables: per-thread CPU clocks for the
// per-task CPU column of Table 1, the worker pool whose threads those
// clocks bill (RunPool: the engine's one way to run independent zone
// ranges, or cluster nodes, in parallel), and the paper's own scale-factor
// arithmetic for Tables 2 and 3 (converting the TAM configuration into the
// SQL configuration: CPU count, clock speed, target area, redshift steps,
// and buffer width).
package perfmodel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rusageThread is Linux's RUSAGE_THREAD: resource usage of the calling
// thread only. Callers must pin their goroutine with runtime.LockOSThread
// for deltas to be meaningful.
const rusageThread = 1

// ThreadCPU returns the calling OS thread's consumed CPU time (user +
// system). It returns zero if the platform refuses the query, so deltas
// degrade to zero rather than garbage.
func ThreadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// RunPool runs task(worker, i) for every i in [0, n) on min(workers, n)
// goroutines, worker numbered 0 up: each claims the next i from a shared
// counter until none is left or a task has failed, so every i below a
// failed one has run to completion and none is claimed after it. Each
// worker pins its goroutine to an OS thread for its whole run, and cpu is
// the sum of those threads' CPU time, so a caller can bill the pool's work
// to the task that spawned it. RunPool returns once every worker has
// exited, with the error of the lowest failed i. workers below 1 count
// as 1.
func RunPool(workers, n int, task func(worker, i int) error) (cpu time.Duration, err error) {
	errs := make([]error, n)
	var (
		next    atomic.Int64
		failed  atomic.Bool
		cpuNano atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < min(max(workers, 1), n); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := ThreadCPU()
			defer func() { cpuNano.Add(int64(ThreadCPU() - start)) }()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = task(w, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	cpu = time.Duration(cpuNano.Load())
	for _, err := range errs {
		if err != nil {
			return cpu, err
		}
	}
	return cpu, nil
}

// ProcessCPU returns the whole process's consumed CPU time.
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TaskStats is one row of a Table 1-style report: a named task with its
// elapsed wall time, CPU time, and I/O operation count.
type TaskStats struct {
	Name    string
	Elapsed time.Duration
	CPU     time.Duration
	IO      int64
}

// Span measures a task: it pins the goroutine to its OS thread, runs fn,
// and returns elapsed and CPU durations. The caller supplies I/O deltas
// from its buffer pool.
func Span(fn func() error) (elapsed, cpu time.Duration, err error) {
	start := time.Now()
	cpuStart := ThreadCPU()
	err = fn()
	return time.Since(start), ThreadCPU() - cpuStart, err
}
