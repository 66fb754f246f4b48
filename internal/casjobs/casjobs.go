// Package casjobs implements the SDSS Batch Query System of the paper's
// §4: users submit SQL against shared catalog contexts (the CAS databases)
// or their personal server-side database (MyDB); long-running queries are
// queued and executed by workers; results land in MyDB tables; users form
// groups and share tables. CasJobs is the paper's mechanism for "bringing
// the code to the data".
//
// The service layer is built to survive a multi-tenant workload: quick and
// long queues with separate worker budgets and per-queue execution
// timeouts, preemptive cancellation threaded down to the storage sweeps,
// per-user token-bucket admission, bounded queue depth, bounded retries on
// transient faults, panic isolation per job, and graceful drain.
package casjobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
)

// Typed admission and lookup errors. The HTTP layer maps these onto
// status codes (404/429/503); embedded detail is attached with %w so
// errors.Is keeps working through the wrapping.
var (
	ErrUnknownUser    = errors.New("casjobs: unknown user")
	ErrUnknownContext = errors.New("casjobs: unknown context")
	ErrUnknownJob     = errors.New("casjobs: unknown job")
	ErrQueueFull      = errors.New("casjobs: queue full")
	ErrRateLimited    = errors.New("casjobs: rate limit exceeded")
	ErrDraining       = errors.New("casjobs: server is draining")
)

// JobStatus is the lifecycle of a submitted query.
type JobStatus int

// Job states.
const (
	StatusQueued JobStatus = iota
	StatusRunning
	StatusFinished
	StatusFailed
	StatusCancelled
)

// String implements fmt.Stringer.
func (s JobStatus) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusFinished:
		return "finished"
	case StatusFailed:
		return "failed"
	case StatusCancelled:
		return "cancelled"
	}
	return "unknown"
}

// terminal reports whether the status is final.
func (s JobStatus) terminal() bool {
	return s == StatusFinished || s == StatusFailed || s == StatusCancelled
}

// Job is one submitted query.
type Job struct {
	ID      int64
	User    string
	Context string // "MYDB" or a shared context name (e.g. "DR1")
	Query   string
	// OutputTable, when set, materialises the result into this MyDB
	// table (the CasJobs "SELECT ... INTO mydb.Name" behaviour).
	OutputTable string
	Quick       bool
	// TraceID correlates this job across the query log, /debug/traces, and
	// client-visible status; assigned at admission.
	TraceID string

	mu       sync.Mutex
	status   JobStatus
	err      string
	rows     *sqldb.Rows
	rowCount int64
	attempts int
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // set while running; preemptive Cancel
	done     chan struct{}
	doneOnce sync.Once
}

// markDone closes the completion channel exactly once, no matter whether
// the job finished, failed, timed out, or was cancelled while queued.
func (j *Job) markDone() { j.doneOnce.Do(func() { close(j.done) }) }

// queueName renders the queue the job was admitted to, as used in metric
// labels and log records.
func (j *Job) queueName() string {
	if j.Quick {
		return "quick"
	}
	return "long"
}

// Status returns the job's current state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the failure message for failed jobs.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Rows returns the result set of a finished SELECT job (nil when the
// output went to a MyDB table or the statement returned no rows).
func (j *Job) Rows() *sqldb.Rows {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows
}

// RowCount returns the affected/returned row count.
func (j *Job) RowCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rowCount
}

// Attempts returns how many execution attempts the job consumed (1 for a
// first-try success; more after transient-fault retries).
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Elapsed returns the execution duration of a completed job.
func (j *Job) Elapsed() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() || j.started.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// user is one registered account with its MyDB and token bucket.
type user struct {
	name string
	mydb *sqldb.DB

	// Token bucket for submission rate limiting (guarded by Server.mu).
	tokens     float64
	lastRefill time.Time
}

// Config tunes the service's robustness envelope. Zero values select
// defaults, so Config{} behaves like the historical server.
type Config struct {
	// QuickWorkers and LongWorkers size the two worker pools
	// (defaults 2 and 1). Quick jobs never wait behind long extractions.
	QuickWorkers int
	LongWorkers  int
	// QuickTimeout and LongTimeout bound one job's execution on each
	// queue (defaults 5s and 60s). A job past its deadline is failed
	// with a timeout error and stops consuming CPU at the next
	// cancellation checkpoint.
	QuickTimeout time.Duration
	LongTimeout  time.Duration
	// MaxQueue bounds the number of jobs waiting in each queue
	// (default 256). Submissions past the bound fail with ErrQueueFull.
	MaxQueue int
	// UserQPS caps each user's sustained submission rate via a token
	// bucket of UserBurst capacity. Zero disables rate limiting;
	// UserBurst defaults to max(1, 2*UserQPS).
	UserQPS   float64
	UserBurst int
	// MaxRetries bounds re-execution after transient faults (default 2;
	// negative disables retries). RetryBase is the first backoff delay,
	// doubled per attempt (default 5ms).
	MaxRetries int
	RetryBase  time.Duration
	// Logger, when set, receives a structured completion record per job
	// (and admission failures are left to the HTTP layer's status codes).
	// Nil keeps the server silent, as library users and tests expect.
	Logger *slog.Logger
	// SlowQuery, when positive, logs a warning with the query text for any
	// job whose execution exceeds it. Requires Logger.
	SlowQuery time.Duration
}

func (c Config) withDefaults() Config {
	if c.QuickWorkers < 1 {
		c.QuickWorkers = 2
	}
	if c.LongWorkers < 1 {
		c.LongWorkers = 1
	}
	if c.QuickTimeout <= 0 {
		c.QuickTimeout = 5 * time.Second
	}
	if c.LongTimeout <= 0 {
		c.LongTimeout = 60 * time.Second
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.UserBurst <= 0 {
		c.UserBurst = int(math.Max(1, 2*c.UserQPS))
	}
	return c
}

// jobQueue is a FIFO with blocking pop and O(n) removal. A slice-backed
// queue (not a channel) so that cancelling a queued job releases its
// admission slot immediately instead of when a worker happens to pop it.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*Job
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *jobQueue) push(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return true
}

// pop blocks until an item is available or the queue is closed and empty.
// A closed queue still drains its backlog, which is what lets Shutdown
// finish queued work inside the drain deadline.
func (q *jobQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return j, true
}

// remove deletes a still-queued job, freeing its admission slot.
func (q *jobQueue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, x := range q.items {
		if x == j {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Server is the CasJobs service.
type Server struct {
	cfg Config

	mu       sync.Mutex
	contexts map[string]*sqldb.DB // shared read-only catalogs
	users    map[string]*user
	groups   map[string]map[string]bool // group -> members
	shared   map[string]sharedTable     // "group/table" -> source
	jobs     map[int64]*Job
	nextID   int64
	draining bool

	quick *jobQueue
	long  *jobQueue
	wg    sync.WaitGroup

	// met is the job-lifecycle instrumentation (nil until EnableMetrics);
	// running counts executing jobs; tracer hands out job spans (no-ops
	// until a sink is attached).
	met     atomic.Pointer[serverMetrics]
	reg     atomic.Pointer[telemetry.Registry]
	running atomic.Int64
	tracer  telemetry.Tracer

	// MyDBFrames sizes each user's buffer pool.
	MyDBFrames int

	// now is swapped in tests to drive the token bucket deterministically.
	now func() time.Time
}

type sharedTable struct {
	owner string
	table string
}

// NewServer creates a CasJobs service over the given shared contexts (name
// -> database) with the given number of long-queue workers and default
// robustness settings.
func NewServer(contexts map[string]*sqldb.DB, workers int) *Server {
	return NewServerConfig(contexts, Config{LongWorkers: workers})
}

// NewServerConfig creates a CasJobs service with explicit queue, timeout,
// admission, and retry settings.
func NewServerConfig(contexts map[string]*sqldb.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		contexts:   make(map[string]*sqldb.DB),
		users:      make(map[string]*user),
		groups:     make(map[string]map[string]bool),
		shared:     make(map[string]sharedTable),
		jobs:       make(map[int64]*Job),
		quick:      newJobQueue(),
		long:       newJobQueue(),
		MyDBFrames: 1024,
		now:        time.Now,
	}
	for name, db := range contexts {
		s.contexts[strings.ToUpper(name)] = db
	}
	for w := 0; w < cfg.QuickWorkers; w++ {
		s.wg.Add(1)
		go s.workerLoop(s.quick, cfg.QuickTimeout)
	}
	for w := 0; w < cfg.LongWorkers; w++ {
		s.wg.Add(1)
		go s.workerLoop(s.long, cfg.LongTimeout)
	}
	return s
}

// Close drains both queues and stops the workers, waiting indefinitely.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// Shutdown gracefully drains the service: admission stops immediately
// (Submit fails with ErrDraining), queued and running jobs are given until
// ctx expires to finish, then everything still active is cancelled. It
// returns nil on a clean drain or ctx.Err() when the deadline forced
// cancellation.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.quick.close()
	s.long.close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		return ctx.Err()
	}
}

// cancelAll force-cancels every non-terminal job: queued jobs are marked
// cancelled (workers skip them), running jobs get their context cancelled.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	m := s.met.Load()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.status {
		case StatusQueued:
			j.status = StatusCancelled
			j.err = "cancelled: server shutdown"
			j.finished = s.now()
			m.completed(j.queueName(), StatusCancelled, j.finished.Sub(j.created), 0, 0)
			j.markDone()
		case StatusRunning:
			if j.cancel != nil {
				j.cancel()
			}
		}
		j.mu.Unlock()
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the number of jobs waiting in the quick and long
// queues (not counting running jobs).
func (s *Server) QueueDepth() (quick, long int) {
	return s.quick.depth(), s.long.depth()
}

// CreateUser registers an account and provisions its MyDB.
func (s *Server) CreateUser(name string) error {
	if name == "" {
		return fmt.Errorf("casjobs: empty user name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := s.users[key]; dup {
		return fmt.Errorf("casjobs: user %q already exists", name)
	}
	s.users[key] = &user{
		name:       name,
		mydb:       sqldb.Open(s.MyDBFrames),
		tokens:     float64(s.cfg.UserBurst),
		lastRefill: s.now(),
	}
	return nil
}

// MyDB returns a user's personal database (full power: create tables,
// indexes, run any statement).
func (s *Server) MyDB(userName string) (*sqldb.DB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[strings.ToLower(userName)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, userName)
	}
	return u.mydb, nil
}

// Contexts lists the shared catalog names.
func (s *Server) Contexts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.contexts))
	for name := range s.contexts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TableInfo describes one table as a single database snapshot saw it.
type TableInfo struct {
	Name string `json:"name"`
	Rows int64  `json:"rows"`
}

// Tables lists a context's tables with their row counts — the user's
// MyDB when context is "MYDB", a shared catalog otherwise. The whole
// listing reads one snapshot: names and counts come from the same set of
// published table versions, so a bulk load, DROP, or RENAME racing the
// call can never yield a name whose count is missing or taken from a
// different state. Fails with ErrUnknownUser / ErrUnknownContext.
func (s *Server) Tables(userName, context string) ([]TableInfo, error) {
	s.mu.Lock()
	var db *sqldb.DB
	if strings.ToUpper(context) == "MYDB" {
		u, ok := s.users[strings.ToLower(userName)]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownUser, userName)
		}
		db = u.mydb
	} else {
		ctxDB, ok := s.contexts[strings.ToUpper(context)]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownContext, context)
		}
		db = ctxDB
	}
	s.mu.Unlock()

	snap := db.Snapshot()
	defer snap.Close()
	names := snap.TableNames()
	out := make([]TableInfo, 0, len(names))
	for _, name := range names {
		tv, ok := snap.View(name)
		if !ok {
			continue // unreachable: the snapshot's catalog is immutable
		}
		out = append(out, TableInfo{Name: name, Rows: tv.NumRows()})
	}
	return out, nil
}

// allowLocked refills and debits the user's token bucket. Callers hold
// Server.mu.
func (s *Server) allowLocked(u *user) bool {
	if s.cfg.UserQPS <= 0 {
		return true
	}
	now := s.now()
	burst := float64(s.cfg.UserBurst)
	u.tokens = math.Min(burst, u.tokens+now.Sub(u.lastRefill).Seconds()*s.cfg.UserQPS)
	u.lastRefill = now
	if u.tokens < 1 {
		return false
	}
	u.tokens--
	return true
}

// Submit admits a query into the quick or long queue. Quick submissions
// block until the job completes (the CasJobs quick queue, meant for short
// interactive queries); long jobs return immediately with the queued job.
// Admission can fail with ErrUnknownUser, ErrUnknownContext,
// ErrRateLimited, ErrQueueFull, or ErrDraining. Against a shared context
// only SELECT is allowed; against MYDB any statement runs.
func (s *Server) Submit(userName, context, query, outputTable string, quick bool) (*Job, error) {
	m := s.met.Load()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		m.reject("draining")
		return nil, ErrDraining
	}
	u, ok := s.users[strings.ToLower(userName)]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, userName)
	}
	ctx := strings.ToUpper(context)
	if ctx != "MYDB" {
		if _, ok := s.contexts[ctx]; !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownContext, context)
		}
	}
	if !s.allowLocked(u) {
		s.mu.Unlock()
		m.reject("rate_limit")
		return nil, fmt.Errorf("%w: user %q", ErrRateLimited, userName)
	}
	q := s.long
	if quick {
		q = s.quick
	}
	if q.depth() >= s.cfg.MaxQueue {
		s.mu.Unlock()
		m.reject("queue_full")
		return nil, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, s.cfg.MaxQueue)
	}
	s.nextID++
	created := s.now()
	job := &Job{
		ID: s.nextID, User: u.name, Context: ctx, Query: query,
		OutputTable: outputTable, Quick: quick,
		TraceID: fmt.Sprintf("%d-%08x", s.nextID, uint32(created.UnixNano())),
		status:  StatusQueued, created: created,
		done: make(chan struct{}),
	}
	s.jobs[job.ID] = job
	if !q.push(job) {
		// The queue closed between the draining check and the push.
		delete(s.jobs, job.ID)
		s.mu.Unlock()
		m.reject("draining")
		return nil, ErrDraining
	}
	s.mu.Unlock()
	m.admitted(job.queueName(), job.User)

	if quick {
		<-job.done
	}
	return job, nil
}

// Job looks up a submitted job by id.
func (s *Server) Job(id int64) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists a user's jobs, oldest first.
func (s *Server) Jobs(userName string) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if strings.EqualFold(j.User, userName) {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Wait blocks until the job completes and returns its final status.
func (s *Server) Wait(id int64) (JobStatus, error) {
	j, err := s.Job(id)
	if err != nil {
		return 0, err
	}
	<-j.done
	return j.Status(), nil
}

// Cancel stops a job. A queued job is cancelled in place — its admission
// slot frees immediately and Wait returns promptly. A running job has its
// execution context cancelled; the operators notice at the next
// checkpoint and the job lands in StatusCancelled. Cancelling an already
// cancelled job is a no-op; cancelling a finished or failed one is an
// error.
func (s *Server) Cancel(id int64) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	m := s.met.Load()
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCancelled
		j.err = "cancelled while queued"
		j.finished = s.now()
		// Free the admission slot now, not when a worker pops the
		// corpse. remove may miss when a worker raced us to the pop;
		// runJob's queued-status check then skips execution anyway.
		if j.Quick {
			s.quick.remove(j)
		} else {
			s.long.remove(j)
		}
		m.cancelled()
		m.completed(j.queueName(), StatusCancelled, j.finished.Sub(j.created), 0, 0)
		j.markDone()
		return nil
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
		m.cancelled()
		return nil
	case StatusCancelled:
		return nil
	default:
		return fmt.Errorf("casjobs: job %d is already %s", id, j.status)
	}
}

func (s *Server) workerLoop(q *jobQueue, timeout time.Duration) {
	defer s.wg.Done()
	for {
		j, ok := q.pop()
		if !ok {
			return
		}
		s.runJob(j, timeout)
	}
}

// runJob executes one popped job under its queue's deadline, classifying
// the outcome into finished / failed / cancelled. Completion is the job's
// observability point: the lifecycle counters, the trace span, and the
// structured query log all record here, once, after the job is terminal.
func (s *Server) runJob(j *Job, timeout time.Duration) {
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled between admission and pop.
		j.mu.Unlock()
		j.markDone()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j.status = StatusRunning
	j.started = s.now()
	j.cancel = cancel
	queueWait := j.started.Sub(j.created)
	j.mu.Unlock()
	defer cancel()

	s.running.Add(1)
	sp := s.tracer.Start("casjobs.job", j.TraceID)
	sp.SetAttr("user", j.User)
	sp.SetAttr("queue", j.queueName())
	sp.SetAttr("context", j.Context)

	var rows *sqldb.Rows
	var count int64
	err := s.runAttempts(ctx, j, &rows, &count)

	status, errMsg := StatusFinished, ""
	switch {
	case err == nil:
		// Finished, even if the deadline fired a moment later.
	case errors.Is(err, context.Canceled):
		status, errMsg = StatusCancelled, "cancelled while running"
	case errors.Is(err, context.DeadlineExceeded):
		status, errMsg = StatusFailed, fmt.Sprintf("timeout after %v", timeout)
	default:
		status, errMsg = StatusFailed, err.Error()
	}

	j.mu.Lock()
	j.status = status
	j.err = errMsg
	j.rows = rows
	j.rowCount = count
	j.finished = s.now()
	j.cancel = nil
	attempts := j.attempts
	exec := j.finished.Sub(j.started)
	j.mu.Unlock()

	// Record before markDone: a caller woken by Wait (or a quick Submit)
	// must find the job no longer running, the completion counters bumped
	// and the log line written.
	s.running.Add(-1)
	sp.SetAttr("status", status.String())
	sp.SetAttr("attempts", fmt.Sprint(attempts))
	sp.End()
	s.met.Load().completed(j.queueName(), status, queueWait, exec, int64(attempts-1))
	if lg := s.cfg.Logger; lg != nil {
		attrs := []any{
			"job", j.ID, "user", j.User, "queue", j.queueName(),
			"context", j.Context, "status", status.String(),
			"attempts", attempts, "rows", count,
			"queue_wait_ms", queueWait.Seconds() * 1e3,
			"exec_ms", exec.Seconds() * 1e3,
			"trace", j.TraceID,
		}
		if errMsg != "" {
			attrs = append(attrs, "error", errMsg)
		}
		lg.Info("job complete", attrs...)
		if s.cfg.SlowQuery > 0 && exec >= s.cfg.SlowQuery {
			lg.Warn("slow query",
				"job", j.ID, "user", j.User, "trace", j.TraceID,
				"exec_ms", exec.Seconds()*1e3,
				"threshold_ms", s.cfg.SlowQuery.Seconds()*1e3,
				"query", j.Query)
		}
	}
	j.markDone()
}

// runAttempts executes the job, retrying on transient faults (bounded by
// MaxRetries, exponential backoff from RetryBase). Cancellation and
// deadline expiry are never retried.
func (s *Server) runAttempts(ctx context.Context, j *Job, rows **sqldb.Rows, count *int64) error {
	backoff := s.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt + 1
		j.mu.Unlock()
		err := s.runOnce(ctx, j, rows, count)
		if err == nil || ctx.Err() != nil || !faultinject.IsTransient(err) || attempt >= s.cfg.MaxRetries {
			return err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return err
		}
		backoff *= 2
	}
}

// runOnce performs a single execution attempt with panic isolation: a
// panicking job is converted into a failure carrying the stack, and the
// worker survives.
func (s *Server) runOnce(ctx context.Context, j *Job, rows **sqldb.Rows, count *int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("casjobs: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	*rows, *count = nil, 0

	s.mu.Lock()
	u := s.users[strings.ToLower(j.User)]
	ctxDB := s.contexts[j.Context]
	s.mu.Unlock()
	if u == nil {
		return fmt.Errorf("%w: %q", ErrUnknownUser, j.User)
	}

	if j.Context == "MYDB" {
		if j.OutputTable != "" {
			r, err := u.mydb.QueryContext(ctx, j.Query)
			if err != nil {
				return err
			}
			n, err := materialize(u.mydb, j.OutputTable, j.ID, r)
			*count = n
			return err
		}
		if isSelect(j.Query) {
			r, err := u.mydb.QueryContext(ctx, j.Query)
			if err != nil {
				return err
			}
			*rows = r
			*count = int64(r.Len())
			return nil
		}
		n, err := u.mydb.ExecContext(ctx, j.Query)
		*count = n
		return err
	}
	// Shared context: read-only.
	if !isSelect(j.Query) {
		return fmt.Errorf("casjobs: context %s is read-only; only SELECT is allowed", j.Context)
	}
	r, err := ctxDB.QueryContext(ctx, j.Query)
	if err != nil {
		return err
	}
	if j.OutputTable != "" {
		n, err := materialize(u.mydb, j.OutputTable, j.ID, r)
		*count = n
		return err
	}
	*rows = r
	*count = int64(r.Len())
	return nil
}

// isSelect reports whether the statement returns rows without writing:
// bare SELECTs and EXPLAIN [ANALYZE] SELECT both qualify, so remote
// clients can inspect the planner's choices against read-only contexts.
func isSelect(query string) bool {
	stmt, err := sqldb.Parse(query)
	if err != nil {
		return false // let execution surface the parse error
	}
	switch stmt.(type) {
	case *sqldb.SelectStmt, *sqldb.ExplainStmt:
		return true
	}
	return false
}

// materialize stores a result set as a MyDB table atomically: rows are
// bulk-loaded into a job-private staging table which is then renamed over
// the target in one catalog swap. A failure at any point (including an
// injected storage fault mid-load) drops the staging table and leaves the
// previous target untouched. Column types are inferred from the first
// non-null value of each column (FLOAT otherwise).
func materialize(db *sqldb.DB, table string, jobID int64, rows *sqldb.Rows) (int64, error) {
	stage := fmt.Sprintf("__casjobs_stage_%d_%s", jobID, table)
	_ = db.DropTable(stage, true)
	cols := make([]sqldb.Column, len(rows.Columns))
	all := rows.All()
	for i, name := range rows.Columns {
		typ := sqldb.TFloat
		for _, r := range all {
			if !r[i].IsNull() {
				typ = r[i].T
				break
			}
		}
		cols[i] = sqldb.Column{Name: name, Type: typ}
	}
	t, err := db.CreateTable(stage, cols, "")
	if err != nil {
		return 0, err
	}
	// One bulk load, not a row-at-a-time trickle: long-queue extractions
	// are exactly the MyDB batch ingest the engine's load path is built
	// for (encode once, sort the run, write packed pages bottom-up).
	if err := t.BulkInsert(all); err != nil {
		_ = db.DropTable(stage, true)
		return 0, err
	}
	if err := db.RenameTable(stage, table); err != nil {
		_ = db.DropTable(stage, true)
		return 0, err
	}
	return int64(len(all)), nil
}

// CreateGroup registers a sharing group owned by its first member.
func (s *Server) CreateGroup(group, owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[strings.ToLower(owner)]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, owner)
	}
	key := strings.ToLower(group)
	if _, dup := s.groups[key]; dup {
		return fmt.Errorf("casjobs: group %q already exists", group)
	}
	s.groups[key] = map[string]bool{strings.ToLower(owner): true}
	return nil
}

// JoinGroup adds a member to a group.
func (s *Server) JoinGroup(group, userName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[strings.ToLower(group)]
	if !ok {
		return fmt.Errorf("casjobs: unknown group %q", group)
	}
	if _, ok := s.users[strings.ToLower(userName)]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, userName)
	}
	g[strings.ToLower(userName)] = true
	return nil
}

// Publish shares a MyDB table with a group.
func (s *Server) Publish(userName, table, group string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[strings.ToLower(group)]
	if !ok {
		return fmt.Errorf("casjobs: unknown group %q", group)
	}
	if !g[strings.ToLower(userName)] {
		return fmt.Errorf("casjobs: %q is not a member of %q", userName, group)
	}
	u := s.users[strings.ToLower(userName)]
	if _, ok := u.mydb.Table(table); !ok {
		return fmt.Errorf("casjobs: no table %q in %s's MyDB", table, userName)
	}
	s.shared[strings.ToLower(group)+"/"+strings.ToLower(table)] = sharedTable{
		owner: strings.ToLower(userName), table: table,
	}
	return nil
}

// Import copies a group-shared table into the user's MyDB under destTable.
func (s *Server) Import(userName, group, table, destTable string) (int64, error) {
	s.mu.Lock()
	g, ok := s.groups[strings.ToLower(group)]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("casjobs: unknown group %q", group)
	}
	if !g[strings.ToLower(userName)] {
		s.mu.Unlock()
		return 0, fmt.Errorf("casjobs: %q is not a member of %q", userName, group)
	}
	st, ok := s.shared[strings.ToLower(group)+"/"+strings.ToLower(table)]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("casjobs: table %q is not shared with %q", table, group)
	}
	owner := s.users[st.owner]
	dest := s.users[strings.ToLower(userName)]
	s.mu.Unlock()

	src, ok := owner.mydb.Table(st.table)
	if !ok {
		return 0, fmt.Errorf("casjobs: shared table %q vanished from the owner's MyDB", table)
	}
	_ = dest.mydb.DropTable(destTable, true)
	cols := append([]sqldb.Column(nil), src.Cols...)
	t, err := dest.mydb.CreateTable(destTable, cols, "")
	if err != nil {
		return 0, err
	}
	cur, err := src.Scan()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	var rows [][]sqldb.Value
	for cur.Next() {
		rows = append(rows, append([]sqldb.Value(nil), cur.Row()...))
	}
	if err := cur.Err(); err != nil {
		return 0, err
	}
	// Bulk-load the copy: group imports move whole tables, the batch
	// shape BulkInsert exists for.
	if err := t.BulkInsert(rows); err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}
