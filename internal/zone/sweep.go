package zone

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/colstore"
	"repro/internal/sqldb"
)

var errNilRowSource = errors.New("zone: nil row zone table")

// Sweep is the single entry point of the batched zone join. It replaced
// a ten-function matrix (BatchSearch / ParallelBatchSearch / ...Columnar
// / ...Stats / ...Context variants): the physical access path now lives
// in the Source, the knobs in SweepOptions, and every caller goes through
// here.
//
// Sweep answers every probe against the zone table in one pass and calls
// fn(probe index, neighbour row) for each hit. Per probe it emits rows in
// the same (zone ascending, ra ascending) order as SearchTable, with
// identical chord arithmetic, so the two paths agree bitwise; hits of
// different probes interleave. Probes with negative radius match
// nothing. The output is bit-identical at every worker count: zones are
// swept concurrently but their hits are emitted in zone order from the
// calling goroutine, so fn never runs concurrently and needs no locking.
// opts.Windows, when set, drops hits next to the data — before they are
// buffered, ordered or handed over — and fn sees exactly the subsequence
// of the calls it would have seen without them whose rows the probe's
// Window contains.
//
// The sweep polls ctx between zones (workers poll before claiming their
// next zone) and stops with an error wrapping ctx.Err() once cancelled,
// so an abandoned query stops consuming CPU and pool pins mid-sweep. On
// any error fn has received a clean prefix (by zone) of the sequential
// call sequence; which zones made the prefix may vary with scheduling,
// so callers must discard partial results on error.
func Sweep(ctx context.Context, src Source, probes []Probe, opts SweepOptions, fn func(probe int, zr ZoneRow)) error {
	// One pin covers the whole sweep: every worker's sweeper reads the same
	// immutable table version, so a concurrent bulk load can never tear the
	// result across zones.
	if opts.Windows != nil && len(opts.Windows) != len(probes) {
		return fmt.Errorf("zone: %d windows for %d probes", len(opts.Windows), len(probes))
	}
	newSweeper, release, err := src.pin()
	if err != nil {
		return err
	}
	defer release()
	if len(probes) == 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ws, ps := buildWindows(src.height(), probes)
	ps.windows = opts.Windows

	// Metrics, when attached, count at the sweep boundary only: hits tally
	// in a local (fn always runs on this goroutine) and flush as one Add
	// below. Detached, emit == fn and the sweep allocates nothing extra —
	// the counting closure and the cell it captures are both created
	// inside the branch, so escape analysis keeps the detached path clean.
	m := sweepMet.Load()
	emit := fn
	var hits *int64
	var t0 time.Time
	if m != nil {
		h := new(int64)
		hits = h
		emit = func(probe int, zr ZoneRow) {
			*h++
			fn(probe, zr)
		}
		t0 = time.Now()
	}
	if workers == 1 {
		err = timedSequential(ctx, newSweeper(), ws, ps, emit)
	} else {
		err = sweepParallel(ctx, newSweeper, ws, ps, workers, emit)
	}
	if m != nil {
		m.sweeps.Inc()
		m.probes.Add(int64(len(probes)))
		m.hits.Add(*hits)
		groups := int64(0)
		for i := 0; i < len(ws); i = zoneEnd(ws, i) {
			groups++
		}
		m.groups.Add(groups)
		m.duration.Observe(time.Since(t0).Seconds())
		if err != nil {
			m.errors.Inc()
		}
	}
	return err
}

// SweepOptions carries Sweep's knobs; the zero value is a good default.
type SweepOptions struct {
	// Workers sizes the sweep's worker pool: 0 selects GOMAXPROCS, 1 the
	// sequential path (the ablation baseline — also what a parallel sweep
	// falls back to when the probes collapse into a single zone group).
	Workers int
	// Windows, when non-nil, holds one photometric cut per probe
	// (len(Windows) == len(probes), or Sweep fails): a row inside probe
	// p's radius is a hit only if Windows[p].Contains its object id and
	// photometry. The cut is data, not code, so it is evaluated where the
	// row is read — on the sweep's worker goroutines at every worker count
	// above one, and on the columnar path before the chord test — and a
	// rejected row is never copied out of the worker, handed over in
	// order, or passed to fn. The sweep only reads Windows; the caller must
	// not write it while the sweep runs. A cut on Distance stays in fn.
	// Order is untouched: filtering happens inside each zone's emission
	// sequence, and zones are still handed to fn in ascending order, so
	// the calls fn receives are the contained subsequence of the
	// unfiltered sweep's calls, bit for bit, at every worker count.
	Windows []Window
}

// Window is one probe's pushed-down photometric cut: the row whose object
// id is ExcludeID is rejected (a probe is not its own neighbour), and so
// is every row whose i, g-r or r-i lies outside the closed intervals
// below. An inverted interval (min > max) rejects every number.
type Window struct {
	ExcludeID    int64
	IMin, IMax   float64
	GrMin, GrMax float64
	RiMin, RiMax float64
}

// Contains reports whether a row with this object id and photometry
// passes the cut. It is the only evaluator of a Window — the sweepers and
// every consumer that filters delivered rows itself call it — so every
// path agrees on edge and NaN cases. The i and g-r tests reject only
// values provably outside (a NaN value or bound passes them); the r-i test
// admits only values provably inside (a NaN value or bound fails it).
func (w *Window) Contains(objID int64, i, gr, ri float64) bool {
	// Most selective tests first: on the Table 1 run's in-radius MaxBCG
	// neighbourhoods g-r < GrMin rejects 73 % of rows, i > IMax 63 % and
	// r-i < RiMin 53 %. The order does not change the answer.
	if gr < w.GrMin || i > w.IMax || !(ri >= w.RiMin) ||
		gr > w.GrMax || i < w.IMin || !(ri <= w.RiMax) {
		return false
	}
	return objID != w.ExcludeID
}

// Source is one physical access path of a zone table: the row-major
// clustered B+tree or the column-major segment store. Constructors carry
// the zone height because it is a property of how the table was built,
// not of an individual sweep. The interface is closed (unexported
// methods): the sources below are the only sweepable layouts.
type Source interface {
	// height returns the zone height in degrees the table was built with.
	height() float64
	// pin validates the source and freezes its physical state for one
	// sweep: every sweeper the returned factory makes reads the same
	// immutable version, so workers can never observe different published
	// states of a table written concurrently. release must be called once
	// the sweep is done (it unpins the version's pages for reclamation).
	pin() (newSweeper func() zoneSweeper, release func(), err error)
}

// Rows returns the Source running the row sweep kernel over t's table
// cursors, built with zone height heightDeg: the clustered B+tree of an
// InstallZoneTable table, the segment cursor of a column-primary one.
func Rows(t *sqldb.Table, heightDeg float64) Source {
	return rowSource{t: t, heightDeg: heightDeg}
}

// Columnar returns the Source reading the column-major zone segments ct,
// built with zone height heightDeg. It takes no reclaimer guard: the
// caller keeps the table version that owns ct alive for the sweep (no
// concurrent re-install, truncate, drop or detaching write), since
// superseded segment pages are reclaimed. TableSource pins the version
// itself.
func Columnar(ct *colstore.Table, heightDeg float64) Source {
	return colSource{ct: ct, heightDeg: heightDeg}
}

// TableSource returns the Source that picks t's best access path at sweep
// time: pinning resolves one table version and reads its column segments
// (a projection, or a column-primary table's rows) when that version
// carries them, otherwise its row tree. The
// choice and the data come from the same version, so a write that
// detaches the projection mid-decision cannot leave the sweep reading
// segments that disagree with the rows.
func TableSource(t *sqldb.Table, heightDeg float64) Source {
	return tableSource{t: t, heightDeg: heightDeg}
}

type rowSource struct {
	t         *sqldb.Table
	heightDeg float64
}

func (s rowSource) height() float64 { return s.heightDeg }
func (s rowSource) pin() (func() zoneSweeper, func(), error) {
	if s.t == nil {
		return nil, nil, errNilRowSource
	}
	tv, release := s.t.AcquireView()
	return func() zoneSweeper { return &rowSweeper{tv: tv} }, release, nil
}

type colSource struct {
	ct        *colstore.Table
	heightDeg float64
}

func (s colSource) height() float64 { return s.heightDeg }
func (s colSource) pin() (func() zoneSweeper, func(), error) {
	if err := checkColumnarZone(s.ct); err != nil {
		return nil, nil, err
	}
	// ct is immutable and the caller keeps its version alive: no unpin work.
	return func() zoneSweeper { return &colSweeper{t: s.ct} }, func() {}, nil
}

type tableSource struct {
	t         *sqldb.Table
	heightDeg float64
}

func (s tableSource) height() float64 { return s.heightDeg }
func (s tableSource) pin() (func() zoneSweeper, func(), error) {
	if s.t == nil {
		return nil, nil, errNilRowSource
	}
	tv, release := s.t.AcquireView()
	if ct := tv.Columnar(); ct != nil {
		if err := checkColumnarZone(ct); err != nil {
			release()
			return nil, nil, err
		}
		return func() zoneSweeper { return &colSweeper{t: ct} }, release, nil
	}
	return func() zoneSweeper { return &rowSweeper{tv: tv} }, release, nil
}
