package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Stats counts buffer-pool activity. LogicalReads counts every page fetch;
// PhysicalReads counts the subset that missed the pool and hit the store.
// These are the quantities behind the I/O column of the paper's Table 1
// (SQL Server reports logical + physical reads per statement the same way).
type Stats struct {
	LogicalReads   int64
	PhysicalReads  int64
	PhysicalWrites int64
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.LogicalReads += o.LogicalReads
	s.PhysicalReads += o.PhysicalReads
	s.PhysicalWrites += o.PhysicalWrites
}

// Sub returns s minus o; used to attribute I/O to a span of work.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LogicalReads:   s.LogicalReads - o.LogicalReads,
		PhysicalReads:  s.PhysicalReads - o.PhysicalReads,
		PhysicalWrites: s.PhysicalWrites - o.PhysicalWrites,
	}
}

// Total returns the combined I/O count reported by the benchmark tables:
// logical reads plus physical writes. A page created through Pool.New is
// never counted, so while the pool holds the working set a load costs 0
// (maxbcg.import_io_ops reads 0) and Table 1's I/O column leaves out
// every page the pipeline writes. The count is kept as it is because
// every published io_ops series is taken with it.
func (s Stats) Total() int64 { return s.LogicalReads + s.PhysicalWrites }

type frame struct {
	id    PageID
	buf   []byte
	pins  int
	dirty bool
	used  bool // clock reference bit
}

// FaultHooks intercepts the pool's interactions with its store for fault
// injection: Fetch runs at the top of every Get and Alloc at the top of
// every New. A non-nil error aborts the operation with that error; the
// hook may also just sleep to model a slow device. Hooks run before any
// shard lock is taken, so injected latency stalls only the calling
// query, not every pool client.
type FaultHooks struct {
	Fetch func() error
	Alloc func() error
}

// shard owns a disjoint subset of the pool's frames (pages are assigned
// by PageID hash) with its own lock, page index, clock hand, and stat
// counters. The counters are atomics written only under mu; readers
// (Stats) sum them without taking the lock.
type shard struct {
	mu     sync.Mutex
	ord    int // position in Pool.shards, for diagnostics and metrics
	frames []frame
	index  map[PageID]int
	hand   int

	logicalReads   atomic.Int64
	physicalReads  atomic.Int64
	physicalWrites atomic.Int64
	evictions      atomic.Int64
}

// PoolOptions configures NewPool.
type PoolOptions struct {
	// Frames is the total frame count across all shards (minimum 8).
	Frames int
	// Shards is the number of independently locked frame partitions.
	// 0 means GOMAXPROCS. The value is rounded up to a power of two and
	// then clamped so every shard keeps at least 8 frames — small pools
	// (tests, tight MyDB budgets) degenerate to a single shard and keep
	// the exact eviction behaviour of the unsharded pool.
	Shards int
	// FaultHooks, when non-nil, installs fault-injection hooks at
	// construction (equivalent to calling SetFaultHooks afterwards).
	FaultHooks *FaultHooks
}

// Pool is a pinning buffer pool with clock eviction over a Store. Frames
// are partitioned by PageID hash into power-of-two shards, each with its
// own mutex, index, and clock hand, so concurrent fetches of different
// pages contend only when they hash to the same shard. It is safe for
// concurrent use.
type Pool struct {
	store  Store
	shards []*shard
	shift  uint // 64 - log2(len(shards)); PageID hash >> shift picks the shard
	hooks  atomic.Pointer[FaultHooks]
	faults atomic.Int64 // operations aborted by an injected fault

	// base is the counter snapshot taken by the last ResetStats; Stats
	// reports live counters minus base, so resetting never writes the
	// (concurrently updated) shard counters themselves.
	baseMu sync.Mutex
	base   Stats
}

// NewPool creates a pool over store. See PoolOptions for the knobs; the
// zero value of every option picks a sensible default.
func NewPool(store Store, opts PoolOptions) *Pool {
	frames := opts.Frames
	if frames < 8 {
		frames = 8
	}
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	n = pow
	for n > 1 && frames/n < 8 {
		n >>= 1
	}
	shift := uint(64)
	for s := n; s > 1; s >>= 1 {
		shift--
	}
	p := &Pool{store: store, shards: make([]*shard, n), shift: shift}
	for i := range p.shards {
		// Distribute frames round-robin so totals are exact even when
		// the frame count is not a multiple of the shard count.
		fc := frames / n
		if i < frames%n {
			fc++
		}
		sh := &shard{ord: i, frames: make([]frame, fc), index: make(map[PageID]int, fc)}
		for j := range sh.frames {
			sh.frames[j].buf = make([]byte, PageSize)
		}
		p.shards[i] = sh
	}
	if opts.FaultHooks != nil {
		p.hooks.Store(opts.FaultHooks)
	}
	return p
}

// NumShards returns the number of frame partitions the pool settled on
// after rounding and clamping.
func (p *Pool) NumShards() int { return len(p.shards) }

// shardFor maps a page id to its owning shard (Fibonacci hash on the id,
// top bits select the shard; with one shard the shift is 64 and Go
// defines x>>64 == 0).
func (p *Pool) shardFor(id PageID) *shard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shift]
}

// rawStats sums the live per-shard counters. Each counter is exact (every
// increment happens-before the handle it accounts for is returned), but
// the triple is not a single atomic snapshot; callers that need the
// counters to correspond to a quiesced state (the bench harness) read
// them between operations, not during.
func (p *Pool) rawStats() Stats {
	var s Stats
	for _, sh := range p.shards {
		s.LogicalReads += sh.logicalReads.Load()
		s.PhysicalReads += sh.physicalReads.Load()
		s.PhysicalWrites += sh.physicalWrites.Load()
	}
	return s
}

// Stats returns a snapshot of the pool counters since the last ResetStats.
// The counters are read under baseMu, as ResetStats reads them: a read
// taken before a concurrent reset's but subtracted after it would go
// negative.
func (p *Pool) Stats() Stats {
	p.baseMu.Lock()
	defer p.baseMu.Unlock()
	return p.rawStats().Sub(p.base)
}

// ShardStats returns the live per-shard counters (not adjusted by
// ResetStats); Stats equals their sum minus the reset baseline. Exposed
// for tests and for reading shard balance.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, sh := range p.shards {
		out[i] = Stats{
			LogicalReads:   sh.logicalReads.Load(),
			PhysicalReads:  sh.physicalReads.Load(),
			PhysicalWrites: sh.physicalWrites.Load(),
		}
	}
	return out
}

// ResetStats rebases the counters so a following Stats reads zero; the
// bench harness calls this between tasks so each task's I/O is attributed
// separately, like the paper's per-task rows. Concurrent readers are
// safe: the live counters are never written, only the subtraction base.
func (p *Pool) ResetStats() {
	p.baseMu.Lock()
	defer p.baseMu.Unlock()
	p.base = p.rawStats()
}

// Handle is a pinned page. Buf aliases the frame; it is valid until Release.
type Handle struct {
	ID       PageID
	Buf      []byte
	sh       *shard
	idx      int
	released bool
}

// SetFaultHooks installs (or, with nil, removes) the pool's fault-
// injection hooks. Safe to call while the pool is in use; in-flight
// operations keep the hooks they observed at entry.
func (p *Pool) SetFaultHooks(h *FaultHooks) { p.hooks.Store(h) }

// Get pins the page, reading it from the store on a miss.
func (p *Pool) Get(id PageID) (*Handle, error) {
	if h := p.hooks.Load(); h != nil && h.Fetch != nil {
		if err := h.Fetch(); err != nil {
			p.faults.Add(1)
			return nil, fmt.Errorf("storage: page %d fetch: %w", id, err)
		}
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.logicalReads.Add(1)
	if idx, ok := sh.index[id]; ok {
		f := &sh.frames[idx]
		f.pins++
		f.used = true
		return &Handle{ID: id, Buf: f.buf, sh: sh, idx: idx}, nil
	}
	idx, err := sh.evictLocked(p.store)
	if err != nil {
		return nil, err
	}
	f := &sh.frames[idx]
	sh.physicalReads.Add(1)
	if err := p.store.ReadPage(id, f.buf); err != nil {
		return nil, err
	}
	f.id = id
	f.pins = 1
	f.dirty = false
	f.used = true
	sh.index[id] = idx
	return &Handle{ID: id, Buf: f.buf, sh: sh, idx: idx}, nil
}

// New allocates a fresh page in the store and pins it zero-filled.
func (p *Pool) New() (*Handle, error) {
	if h := p.hooks.Load(); h != nil && h.Alloc != nil {
		if err := h.Alloc(); err != nil {
			p.faults.Add(1)
			return nil, fmt.Errorf("storage: page alloc: %w", err)
		}
	}
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, err := sh.evictLocked(p.store)
	if err != nil {
		return nil, err
	}
	f := &sh.frames[idx]
	for i := range f.buf {
		f.buf[i] = 0
	}
	f.id = id
	f.pins = 1
	f.dirty = true
	f.used = true
	sh.index[id] = idx
	return &Handle{ID: id, Buf: f.buf, sh: sh, idx: idx}, nil
}

// evictLocked finds a free frame in the shard, writing back a dirty
// victim if needed. Pinned frames are never victims: the clock skips any
// frame with pins > 0, so a pinned page cannot be evicted regardless of
// what other shards (or other goroutines on this shard) are doing.
func (sh *shard) evictLocked(store Store) (int, error) {
	for scanned := 0; scanned < 2*len(sh.frames); scanned++ {
		f := &sh.frames[sh.hand]
		idx := sh.hand
		sh.hand = (sh.hand + 1) % len(sh.frames)
		if f.pins > 0 {
			continue
		}
		if f.used {
			f.used = false
			continue
		}
		if f.id != InvalidPageID {
			if f.dirty {
				sh.physicalWrites.Add(1)
				if err := store.WritePage(f.id, f.buf); err != nil {
					return 0, err
				}
			}
			sh.evictions.Add(1)
			delete(sh.index, f.id)
			f.id = InvalidPageID
		}
		return idx, nil
	}
	return 0, fmt.Errorf("storage: buffer pool shard exhausted: all %d frames pinned", len(sh.frames))
}

// Release unpins the page; dirty marks it modified so eviction writes it
// back. Releasing the same handle twice panics — a double release would
// otherwise silently unpin someone else's pin and let a live page be
// evicted under them.
func (h *Handle) Release(dirty bool) {
	if h.released {
		panic(fmt.Sprintf("storage: double release of handle for page %d (shard %d)", h.ID, h.sh.ord))
	}
	h.released = true
	sh := h.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := &sh.frames[h.idx]
	if f.id != h.ID {
		panic(fmt.Sprintf("storage: release of stale handle for page %d (frame now holds %d)", h.ID, f.id))
	}
	if dirty {
		f.dirty = true
	}
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: release of unpinned page %d", h.ID))
	}
	f.pins--
}

// FlushAll writes every dirty frame back to the store, one shard at a time.
func (p *Pool) FlushAll() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			if f.id != InvalidPageID && f.dirty {
				sh.physicalWrites.Add(1)
				if err := p.store.WritePage(f.id, f.buf); err != nil {
					sh.mu.Unlock()
					return err
				}
				f.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Dealloc drops the page's frame (no writeback — the page is dead) and
// returns the id to the store's free list. If the frame is still pinned
// (a cursor not yet closed, say) the call is a no-op
// and the page leaks instead: the id is NOT freed, so it cannot be
// reallocated under the pin. That is exactly the engine's pre-reclaim
// behaviour, so a skipped page is safe, just unreclaimed. Dealloc counts
// no I/O: it performs no reads and suppresses the writeback an eviction
// would have done.
func (p *Pool) Dealloc(id PageID) error {
	_, err := p.dealloc(id)
	return err
}

// dealloc is Dealloc plus a freed/leaked verdict: false means the page
// was pinned and skipped. The reclaimer uses the verdict to account for
// leaked pages without changing Dealloc's public contract.
func (p *Pool) dealloc(id PageID) (freed bool, err error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	if idx, ok := sh.index[id]; ok {
		f := &sh.frames[idx]
		if f.pins > 0 {
			sh.mu.Unlock()
			return false, nil
		}
		delete(sh.index, id)
		f.id = InvalidPageID
		f.dirty = false
		f.used = false
	}
	sh.mu.Unlock()
	return true, p.store.Free(id)
}
