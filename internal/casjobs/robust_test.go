package casjobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// transientErr is a retryable failure for the retry tests.
type transientErr struct{}

func (transientErr) Error() string   { return "casjobs_test: transient flake" }
func (transientErr) Transient() bool { return true }

// newRobustServer builds a server with one user whose MyDB holds a small
// "one" table (1 row) and a "big" table (2048 rows) for checkpointed scans.
func newRobustServer(t *testing.T, cfg Config) (*Server, *sqldb.DB) {
	t.Helper()
	srv := NewServerConfig(nil, cfg)
	t.Cleanup(srv.Close)
	if err := srv.CreateUser("ana"); err != nil {
		t.Fatal(err)
	}
	mydb, err := srv.MyDB("ana")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mydb.Exec("CREATE TABLE one (x bigint PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := mydb.Exec("INSERT INTO one VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := mydb.Exec("CREATE TABLE big (id bigint PRIMARY KEY, x real)"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqldb.Value, 2048)
	for i := range rows {
		rows[i] = []sqldb.Value{sqldb.Int(int64(i)), sqldb.Float(float64(i % 31))}
	}
	tab, _ := mydb.Table("big")
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	return srv, mydb
}

// TestCancelWhileQueued pins the satellite fix: cancelling a queued job
// frees its admission slot immediately and Wait returns promptly.
func TestCancelWhileQueued(t *testing.T) {
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1, MaxQueue: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	mydb.RegisterScalar("block", func(args []sqldb.Value) (sqldb.Value, error) {
		started <- struct{}{}
		<-release
		return args[0], nil
	})

	// Occupy the single long worker.
	blocker, err := srv.Submit("ana", "MYDB", "SELECT block(x) FROM one", "", false)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Fill the queue's single slot, then prove the bound holds.
	queued, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-admission error = %v, want ErrQueueFull", err)
	}

	// Cancel the queued job: slot frees now, Wait returns now.
	if err := srv.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitc := make(chan JobStatus, 1)
	go func() {
		st, _ := srv.Wait(queued.ID)
		waitc <- st
	}()
	select {
	case st := <-waitc:
		if st != StatusCancelled {
			t.Fatalf("cancelled queued job status = %s", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait on a cancel-while-queued job did not return promptly")
	}
	if q, l := srv.QueueDepth(); q != 0 || l != 0 {
		t.Fatalf("queue depth after cancel = (%d, %d), want empty", q, l)
	}
	if _, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false); err != nil {
		t.Fatalf("slot not released after cancel: %v", err)
	}

	close(release)
	if st, _ := srv.Wait(blocker.ID); st != StatusFinished {
		t.Fatalf("blocker job = %s (%s)", st, blocker.Err())
	}
}

// TestCancelWhileRunning pins preemptive cancellation: a running query is
// interrupted at the next row-batch checkpoint and the job lands in
// StatusCancelled.
func TestCancelWhileRunning(t *testing.T) {
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	mydb.RegisterScalar("gate", func(args []sqldb.Value) (sqldb.Value, error) {
		once.Do(func() {
			close(started)
			<-release
		})
		return args[0], nil
	})

	job, err := srv.Submit("ana", "MYDB", "SELECT COUNT(*) FROM big WHERE gate(x) >= 0", "", false)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if job.Status() != StatusRunning {
		t.Fatalf("job status = %s, want running", job.Status())
	}
	if err := srv.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	st, err := srv.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusCancelled {
		t.Fatalf("cancelled running job = %s (%s)", st, job.Err())
	}
	if !strings.Contains(job.Err(), "cancelled") {
		t.Fatalf("job error = %q", job.Err())
	}
}

// TestJobTimeout pins the per-queue execution deadline: a query slower
// than LongTimeout fails with a timeout error instead of running forever.
func TestJobTimeout(t *testing.T) {
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1, LongTimeout: 30 * time.Millisecond})
	mydb.RegisterScalar("slow", func(args []sqldb.Value) (sqldb.Value, error) {
		time.Sleep(200 * time.Microsecond)
		return args[0], nil
	})
	job, err := srv.Submit("ana", "MYDB", "SELECT COUNT(*) FROM big WHERE slow(x) >= 0", "", false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusFailed {
		t.Fatalf("timed-out job = %s", st)
	}
	if !strings.Contains(job.Err(), "timeout") {
		t.Fatalf("job error = %q, want timeout", job.Err())
	}
}

// TestPanicRecovery pins panic isolation: a panicking job is marked failed
// with the captured stack and the worker keeps serving.
func TestPanicRecovery(t *testing.T) {
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1})
	mydb.RegisterScalar("boom", func([]sqldb.Value) (sqldb.Value, error) {
		panic("kaboom")
	})
	job, err := srv.Submit("ana", "MYDB", "SELECT boom(x) FROM one", "", false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusFailed {
		t.Fatalf("panicking job = %s", st)
	}
	if !strings.Contains(job.Err(), "panicked") || !strings.Contains(job.Err(), "kaboom") {
		t.Fatalf("job error = %q, want panic + stack", job.Err())
	}
	// The worker that recovered must still run jobs.
	next, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Wait(next.ID); st != StatusFinished {
		t.Fatalf("job after panic = %s (%s)", st, next.Err())
	}
}

// TestRetryTransient pins bounded retry: transient failures are retried
// with backoff until an attempt succeeds; hard failures are not retried.
func TestRetryTransient(t *testing.T) {
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1, MaxRetries: 2, RetryBase: time.Millisecond})
	var calls atomic.Int32
	mydb.RegisterScalar("flaky", func(args []sqldb.Value) (sqldb.Value, error) {
		if calls.Add(1) <= 2 {
			return sqldb.Value{}, transientErr{}
		}
		return args[0], nil
	})
	job, err := srv.Submit("ana", "MYDB", "SELECT flaky(x) FROM one", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Wait(job.ID); st != StatusFinished {
		t.Fatalf("flaky job = %s (%s)", st, job.Err())
	}
	if got := job.Attempts(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}

	// A hard (non-transient) failure must not burn retries.
	mydb.RegisterScalar("hard", func([]sqldb.Value) (sqldb.Value, error) {
		return sqldb.Value{}, errors.New("casjobs_test: permanent")
	})
	job2, err := srv.Submit("ana", "MYDB", "SELECT hard(x) FROM one", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Wait(job2.ID); st != StatusFailed {
		t.Fatalf("hard job = %s", st)
	}
	if got := job2.Attempts(); got != 1 {
		t.Fatalf("hard-failure attempts = %d, want 1", got)
	}
}

// TestRateLimit pins the per-user token bucket: burst admits, the next
// submission is rejected with ErrRateLimited, and tokens refill with time.
func TestRateLimit(t *testing.T) {
	srv, _ := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1, UserQPS: 1, UserBurst: 1})
	// The worker reads the fake clock too, so it moves under a lock.
	var clockMu sync.Mutex
	clock := time.Now()
	srv.mu.Lock()
	srv.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	// Reset the user's bucket under the fake clock.
	u := srv.users["ana"]
	u.tokens, u.lastRefill = 1, clock
	srv.mu.Unlock()

	j, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submit error = %v, want ErrRateLimited", err)
	}
	clockMu.Lock()
	clock = clock.Add(2 * time.Second) // refill at 1 QPS
	clockMu.Unlock()
	if _, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	_, _ = srv.Wait(j.ID)
}

// TestShutdownDrain pins graceful drain: admission stops immediately, and
// when the drain deadline expires the still-running job is force-cancelled
// instead of holding Shutdown hostage.
func TestShutdownDrain(t *testing.T) {
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1})
	mydb.RegisterScalar("crawl", func(args []sqldb.Value) (sqldb.Value, error) {
		time.Sleep(time.Millisecond)
		return args[0], nil
	})
	job, err := srv.Submit("ana", "MYDB", "SELECT COUNT(*) FROM big WHERE crawl(x) >= 0", "", false)
	if err != nil {
		t.Fatal(err)
	}
	for job.Status() != StatusRunning {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()

	// While draining, admission is closed.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining error = %v, want ErrDraining", err)
	}

	err = <-drained
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain error = %v, want DeadlineExceeded", err)
	}
	if st := job.Status(); st != StatusCancelled {
		t.Fatalf("in-flight job after forced drain = %s (%s)", st, job.Err())
	}
}

// TestShutdownClean pins the clean path: with nothing running, Shutdown
// returns nil and further submissions fail with ErrDraining.
func TestShutdownClean(t *testing.T) {
	srv, _ := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean shutdown error = %v", err)
	}
	if _, err := srv.Submit("ana", "MYDB", "SELECT x FROM one", "", false); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown error = %v, want ErrDraining", err)
	}
}

// TestMaterializeAtomicUnderFault pins the satellite: a fault-injected
// OutputTable job fails without touching the previous contents of the
// target table, and leaves no staging debris behind.
func TestMaterializeAtomicUnderFault(t *testing.T) {
	defer faultinject.Reset()
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1, MaxRetries: 1, RetryBase: time.Millisecond})

	// Seed the target through a healthy materialisation first.
	seed, err := srv.Submit("ana", "MYDB", "SELECT id, x FROM big WHERE id < 10", "dest", false)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Wait(seed.ID); st != StatusFinished {
		t.Fatalf("seed job = %s (%s)", st, seed.Err())
	}
	countDest := func() int64 {
		rows, err := mydb.Query("SELECT COUNT(*) FROM dest")
		if err != nil {
			t.Fatalf("dest unreadable: %v", err)
		}
		rows.Next()
		return rows.Row()[0].I
	}
	if got := countDest(); got != 10 {
		t.Fatalf("seeded dest rows = %d", got)
	}

	// Arm a storage fault on the MyDB pool: every page allocation fails,
	// so the staged bulk load cannot complete.
	faultinject.Enable("casjobs/mydb-alloc", faultinject.Failpoint{Prob: 1})
	mydb.Pool().SetFaultHooks(&storage.FaultHooks{Alloc: faultinject.Hook("casjobs/mydb-alloc")})
	defer mydb.Pool().SetFaultHooks(nil)

	job, err := srv.Submit("ana", "MYDB", "SELECT id, x FROM big WHERE id >= 100", "dest", false)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Wait(job.ID); st != StatusFailed {
		t.Fatalf("faulted job = %s", st)
	}
	if !strings.Contains(job.Err(), "injected fault") {
		t.Fatalf("faulted job error = %q", job.Err())
	}
	// The injected fault is transient, so the bounded retry ran it twice.
	if got := job.Attempts(); got != 2 {
		t.Fatalf("faulted job attempts = %d, want 2", got)
	}

	// Atomicity: the target still holds the pre-fault rows and no staging
	// table survived.
	mydb.Pool().SetFaultHooks(nil)
	if got := countDest(); got != 10 {
		t.Fatalf("dest rows after faulted job = %d, want untouched 10", got)
	}
	for _, name := range mydb.TableNames() {
		if strings.Contains(name, "__casjobs_stage") {
			t.Fatalf("staging table %q left behind", name)
		}
	}

	// With the fault disarmed the same job succeeds and replaces dest.
	faultinject.Disable("casjobs/mydb-alloc")
	redo, err := srv.Submit("ana", "MYDB", "SELECT id, x FROM big WHERE id >= 100", "dest", false)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Wait(redo.ID); st != StatusFinished {
		t.Fatalf("redo job = %s (%s)", st, redo.Err())
	}
	if got := countDest(); got != 2048-100 {
		t.Fatalf("dest rows after redo = %d, want %d", got, 2048-100)
	}
}

// TestQuickSubmitIsSynchronous pins the historical quick-queue contract:
// Submit with quick=true returns only after the job is terminal.
func TestQuickSubmitIsSynchronous(t *testing.T) {
	srv, _ := newRobustServer(t, Config{QuickWorkers: 2, LongWorkers: 1})
	job, err := srv.Submit("ana", "MYDB", "SELECT COUNT(*) FROM big", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st != StatusFinished {
		t.Fatalf("quick job returned non-terminal status %s", st)
	}
	if job.RowCount() != 1 {
		t.Fatalf("quick job rows = %d", job.RowCount())
	}
	_ = fmt.Sprintf("%v", job.Elapsed())
}

// TestMaterializeConcurrentReaders extends the atomicity pin to readers
// racing the swap: while materialisations repeatedly replace dest (and
// one faulted attempt fails mid-load), concurrent COUNT/SUM queries over
// dest only ever observe a fully published result set — never a torn
// state, a half-loaded staging table, or a vanished table.
func TestMaterializeConcurrentReaders(t *testing.T) {
	defer faultinject.Reset()
	srv, mydb := newRobustServer(t, Config{QuickWorkers: 1, LongWorkers: 1, MaxRetries: 0})

	queries := []string{
		"SELECT id, x FROM big WHERE id < 10",
		"SELECT id, x FROM big WHERE id >= 100",
	}
	type state struct{ count, sum int64 }
	legal := make(map[state]bool)
	for _, q := range queries {
		rows, err := mydb.Query(strings.Replace(q, "id, x", "COUNT(*), SUM(id)", 1))
		if err != nil {
			t.Fatal(err)
		}
		rows.Next()
		legal[state{rows.Row()[0].I, rows.Row()[1].I}] = true
	}

	// Seed dest so readers always have a table to observe.
	seed, err := srv.Submit("ana", "MYDB", queries[0], "dest", false)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Wait(seed.ID); st != StatusFinished {
		t.Fatalf("seed job = %s (%s)", st, seed.Err())
	}

	var stop atomic.Bool
	var torn atomic.Pointer[string]
	report := func(msg string) { torn.CompareAndSwap(nil, &msg) }
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rows, err := mydb.Query("SELECT COUNT(*), SUM(id) FROM dest")
				if err != nil {
					report(fmt.Sprintf("reader error: %v", err))
					return
				}
				rows.Next()
				st := state{rows.Row()[0].I, rows.Row()[1].I}
				if !legal[st] {
					report(fmt.Sprintf("torn read: count=%d sum=%d", st.count, st.sum))
					return
				}
			}
		}()
	}

	for i := 1; i <= 12; i++ {
		fault := i == 6
		if fault {
			faultinject.Enable("casjobs/mydb-alloc2", faultinject.Failpoint{Prob: 1})
			mydb.Pool().SetFaultHooks(&storage.FaultHooks{Alloc: faultinject.Hook("casjobs/mydb-alloc2")})
		}
		job, err := srv.Submit("ana", "MYDB", queries[i%2], "dest", false)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := srv.Wait(job.ID)
		if fault {
			mydb.Pool().SetFaultHooks(nil)
			faultinject.Disable("casjobs/mydb-alloc2")
			if st != StatusFailed {
				t.Fatalf("faulted job %d = %s", i, st)
			}
		} else if st != StatusFinished {
			t.Fatalf("job %d = %s (%s)", i, st, job.Err())
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := torn.Load(); msg != nil {
		t.Fatal(*msg)
	}
	for _, name := range mydb.TableNames() {
		if strings.Contains(name, "__casjobs_stage") {
			t.Fatalf("staging table %q left behind", name)
		}
	}
}
