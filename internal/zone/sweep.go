package zone

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/sqldb"
)

var errNilTable = errors.New("zone: nil zone table")

// Sweep is the single entry point of the batched zone join. It replaced
// a ten-function matrix (BatchSearch / ParallelBatchSearch / ...Columnar
// / ...Stats / ...Context variants): the physical access path now lives
// in the Source, the knobs in SweepOptions, and every caller goes through
// here.
//
// Sweep answers every probe against the zone table in one pass and calls
// fn(probe index, neighbour row) for each hit, streaming each hit to fn,
// on the calling goroutine, as it is found. Per probe it emits rows in
// the same (zone ascending, ra ascending) order as SearchTable, with
// identical chord arithmetic, so the two paths agree bitwise; hits of
// different probes interleave. Probes with negative radius match
// nothing. opts.Windows, when set, drops hits next to the data, and fn
// sees exactly the subsequence of the calls it would have seen without
// them whose rows the probe's Window contains.
//
// A sweep is sequential: zones are disjoint key ranges, and the callers
// that want parallelism run many sweeps at once over disjoint zone bands
// (DBFinder's passes on perfmodel.RunPool, cluster nodes, fed stripes)
// rather than splitting one sweep's zones across threads, which on the
// measured hardware was slower than one thread and had to buffer hits.
//
// Columnar and TableSource say which tables each Source accepts.
// A table without Zone's photometry columns (CandZone) hands fn rows with
// zero I, Gr and Ri, and a sweep with opts.Windows over it fails before
// it reads a page.
//
// The sweep polls ctx between zones and stops with an error wrapping
// ctx.Err() once cancelled, so an abandoned query stops consuming CPU and
// pool pins mid-sweep. On any error fn has received a prefix of the call
// sequence, so callers must discard partial results on error.
func Sweep(ctx context.Context, src Source, probes []Probe, opts SweepOptions, fn func(probe int, zr ZoneRow)) error {
	// One pin covers the whole sweep: the sweeper reads one immutable
	// table version, so a concurrent bulk load can never tear the result
	// across zones.
	if opts.Windows != nil && len(opts.Windows) != len(probes) {
		return fmt.Errorf("zone: %d windows for %d probes", len(opts.Windows), len(probes))
	}
	sw, span, release, err := src.pin(opts.Windows != nil)
	if err != nil {
		return err
	}
	defer release()
	if len(probes) == 0 {
		return nil
	}
	ws, ps := buildWindows(src.height(), probes, span)
	ps.windows = opts.Windows

	// Metrics, when attached, count at the sweep boundary only: hits tally
	// in a local and flush as one Add below. Detached, emit == fn and the
	// sweep allocates nothing extra — the counting closure and the cell it
	// captures are both created inside the branch, so escape analysis
	// keeps the detached path clean.
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
	err = sweepSequential(ctx, sw, ws, ps, emit)
	if m != nil {
		elapsed := time.Since(t0)
		m.addBusy(elapsed)
		m.sweeps.Inc()
		m.probes.Add(int64(len(probes)))
		m.hits.Add(*hits)
		groups := int64(0)
		for i := 0; i < len(ws); i = zoneEnd(ws, i) {
			groups++
		}
		m.groups.Add(groups)
		m.duration.Observe(elapsed.Seconds())
		if err != nil {
			m.errors.Inc()
		}
	}
	return err
}

// SweepOptions carries Sweep's knobs; the zero value is a good default.
type SweepOptions struct {
	// Workers is ignored: every sweep is sequential (see Sweep). It stays
	// only because the benchmark harness still sets it.
	Workers int
	// Windows, when non-nil, holds one photometric cut per probe
	// (len(Windows) == len(probes), or Sweep fails): a row inside probe
	// p's radius is a hit only if Windows[p].Contains its object id and
	// photometry. The cut is data, not code, so it is evaluated where the
	// row is read, before the chord test, and a rejected row is never
	// copied out or passed to fn. The sweep only reads Windows; the
	// caller must not write it while the sweep runs. A cut on Distance
	// stays in fn. Order is untouched: fn receives the contained
	// subsequence of the unfiltered sweep's calls, bit for bit.
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

// Source is how a sweep reaches a zone table's column segments: through
// the table (TableSource), which pins one version for the sweep, or
// through a colstore table the caller keeps alive (Columnar). Constructors
// carry the zone height because it is a property of how the table was
// built, not of an individual sweep. The interface is closed (unexported
// methods): the sources below are the only ones.
type Source interface {
	// height returns the zone height in degrees the table was built with.
	height() float64
	// pin validates the source and freezes its segments for one sweep:
	// the returned sweeper reads one immutable version, so a table written
	// concurrently cannot tear the sweep. release must be called once the
	// sweep is done (it unpins the version's pages for reclamation).
	// windows says the sweep cuts on photometry, which the table must
	// carry; a refused pin fetches no page. span bounds the zones the
	// pinned segments hold rows in: the sweep builds no window outside
	// it, since such a window could read nothing.
	pin(windows bool) (sw *colSweeper, span zoneSpan, release func(), err error)
}

// zoneSpan is an inclusive range of zone ids.
type zoneSpan struct{ lo, hi int }

// segmentSpan is the span of column segments ct: its first and last
// directory groups (an empty span for a table without segments).
func segmentSpan(ct *colstore.Table) zoneSpan {
	segs := ct.Segments()
	if len(segs) == 0 {
		return zoneSpan{0, -1}
	}
	return zoneSpan{int(segs[0].Group), int(segs[len(segs)-1].Group)}
}

// clip narrows [lo, hi] to the span; the result is empty (lo > hi) when
// they do not meet.
func (s zoneSpan) clip(lo, hi int) (int, int) {
	return max(lo, s.lo), min(hi, s.hi)
}

// Rows is TableSource, kept only for bench/layers.go; goes with
// zone.sweep_row_ms_p50 in ROADMAP 1(d).
func Rows(t *sqldb.Table, heightDeg float64) Source { return TableSource(t, heightDeg) }

// Columnar returns the Source reading the column-major zone segments ct,
// built with zone height heightDeg. ct must be grouped on zoneid and
// sorted on ra, with ColumnarZoneSchema's first seven columns leading its
// schema; Zone's i, gr, ri, when they follow, fill ZoneRow's photometry
// and are what SweepOptions.Windows cuts on, and a Tail after them is never
// read. It takes no reclaimer guard: the
// caller keeps the table version that owns ct alive for the sweep (no
// concurrent re-install, truncate, drop or detaching write), since
// superseded segment pages are reclaimed. TableSource pins the version
// itself.
func Columnar(ct *colstore.Table, heightDeg float64) Source {
	return colSource{ct: ct, heightDeg: heightDeg}
}

// TableSource returns the Source that sweeps t's column segments, built
// with zone height heightDeg: pinning resolves one table version and
// reads the segments holding its rows, which must be what Columnar
// accepts. A row version — a column-primary table after a write
// materialised its row tree — is refused before a page is fetched, with
// an error naming t.
// The segments and the check come from the same version, so a concurrent
// write cannot leave the sweep reading segments that disagree with the
// rows.
func TableSource(t *sqldb.Table, heightDeg float64) Source {
	return tableSource{t: t, heightDeg: heightDeg}
}

type colSource struct {
	ct        *colstore.Table
	heightDeg float64
}

func (s colSource) height() float64 { return s.heightDeg }
func (s colSource) pin(windows bool) (*colSweeper, zoneSpan, func(), error) {
	sw, err := columnarSweeper(s.ct, windows)
	if err != nil {
		return nil, zoneSpan{}, nil, err
	}
	// ct is immutable and the caller keeps its version alive: no unpin work.
	return sw, segmentSpan(s.ct), func() {}, nil
}

type tableSource struct {
	t         *sqldb.Table
	heightDeg float64
}

func (s tableSource) height() float64 { return s.heightDeg }
func (s tableSource) pin(windows bool) (*colSweeper, zoneSpan, func(), error) {
	if s.t == nil {
		return nil, zoneSpan{}, nil, errNilTable
	}
	tv, release := s.t.AcquireView()
	ct := tv.Columnar()
	if ct == nil {
		release()
		return nil, zoneSpan{}, nil, fmt.Errorf("zone: sweep of %s: the table has no column segments", s.t.Name)
	}
	sw, err := columnarSweeper(ct, windows)
	if err != nil {
		release()
		return nil, zoneSpan{}, nil, err
	}
	return sw, segmentSpan(ct), release, nil
}
