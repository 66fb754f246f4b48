package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark from
// outside the engine. Times are nanoseconds since the recorder started.
// IOOps and AllocBytes are the counter deltas taken at the same two
// boundaries as the clock: page I/O of the pools the caller named, and
// bytes allocated process-wide (so AllocBytes attributes cleanly only
// while one client runs).
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // 0 = root of its op
	Op         int    `json:"op"`
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	IOOps      int64  `json:"io_ops"`
	AllocBytes int64  `json:"alloc_bytes"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the workload ends. It is safe for
// concurrent use; ids start at 1 so 0 can mean "no parent".
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// allocBytes reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would, at every boundary).
func allocBytes() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// opTrace is the tracing handle of one operation. A nil *opTrace is the
// untraced run: every method is a no-op, so workloads call them
// unconditionally and the end-to-end numbers pay for nothing.
type opTrace struct {
	rec  *recorder
	op   int
	root int
}

// begin opens a span and returns the function that closes it. io, when
// non-nil, reads the page-I/O counter the span should take a delta of.
func (r *recorder) begin(name string, op, parent int, io func() int64) (id int, end func()) {
	var io0 int64
	if io != nil {
		io0 = io()
	}
	a0 := allocBytes()
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	r.mu.Unlock()
	start := time.Since(r.t0).Nanoseconds()
	return id, func() {
		endNs := time.Since(r.t0).Nanoseconds()
		var dio int64
		if io != nil {
			dio = io() - io0
		}
		da := allocBytes() - a0
		r.mu.Lock()
		s := &r.spans[id-1]
		s.Start, s.End, s.IOOps, s.AllocBytes = start, endNs, dio, da
		r.mu.Unlock()
	}
}

// add records a span a background client timed itself, with no parent
// and no counter deltas.
func (r *recorder) add(name string, op int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
}

// span opens a child of the op's root span.
func (t *opTrace) span(name string, io func() int64) func() {
	if t == nil {
		return func() {}
	}
	_, end := t.rec.begin(name, t.op, t.root, io)
	return end
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once; a child reaching outside its parent is clipped). That is
// the time the span's own layer is answerable for.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// byName groups the recorder's finished spans by name.
func (r *recorder) byName() map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}
