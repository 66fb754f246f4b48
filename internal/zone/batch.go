package zone

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astro"
	"repro/internal/sqldb"
)

// Batched zone join: the per-probe SearchTable plan costs one B-tree
// descent, one cursor, and one row decode per probe per overlapping zone.
// When the caller has many probes at once (spMakeCandidates visits every
// galaxy of the buffered area), the grid-file observation applies: probes
// sorted in index order should be answered by a merge sweep, not repeated
// point lookups. Sweep (sweep.go) sorts every probe's (zone, ra-window)
// obligation by (zone, ra) and drives one synchronized cursor per zone
// through the clustered (zoneid, ra) order, testing each fetched row
// against exactly the probes whose window covers it.
//
// The sweep is generic over the zone table's physical representation: a
// zoneSweeper answers one zone's windows, and both the sequential driver
// and the worker pool only ever talk to that interface. rowSweeper (this
// file) walks the row-major clustered B+tree; colSweeper (colsweep.go)
// walks the column-major segment pages. Their emissions are bit-identical.

// Probe is one centre of a batched neighbour search: a position and a
// search radius, all in degrees.
type Probe struct {
	Ra, Dec, R float64
}

// batchWindow is one (zone, ra-interval) scan obligation of one probe.
type batchWindow struct {
	zone   int
	probe  int32
	lo, hi float64
}

// chordTestCols is how many leading zone-table columns the chord test
// reads: zoneid, objid, ra, dec, cx, cy, cz — the position prefix every
// sweepable table shares with the Zone table. The photometry tail
// (i, gr, ri) decodes only for rows inside some probe's radius.
const chordTestCols = 7

// probeSet is the per-probe state of one Sweep, shared read-only by every
// sweeper (and so by every worker goroutine): what a fetched row is tested
// against once some window of the probe covers it.
type probeSet struct {
	centers []astro.Vec3 // unit vector of each probe centre
	r2s     []float64    // squared chord radius of each probe
	// windows is SweepOptions.Windows: nil keeps every row inside the radius.
	windows []Window
}

// buildWindows expands every probe into its per-zone (zone, ra-window)
// scan obligations, sorted by (zone, lo, probe): the shared front half of
// the sequential and parallel sweeps. The order is total, so windows
// with equal (zone, lo) activate — and their hits on one row emit — in
// probe order. Zones outside span get no window: the pinned table holds
// no row there. The returned probeSet is indexed by probe.
func buildWindows(heightDeg float64, probes []Probe, span zoneSpan) (ws []batchWindow, ps *probeSet) {
	centers := make([]astro.Vec3, len(probes))
	r2s := make([]float64, len(probes))
	// One window per overlapped zone, two only where a window straddles the
	// ra 0/360 seam: counting zones first sizes ws exactly for every probe
	// set off the seam, and append covers the rest.
	zones := 0
	for pi := range probes {
		if p := &probes[pi]; p.R >= 0 {
			minZ, maxZ := span.clip(astro.ZoneRange(p.Dec, p.R, heightDeg))
			zones += max(maxZ-minZ+1, 0)
		}
	}
	ws = make([]batchWindow, 0, zones)
	for pi := range probes {
		p := &probes[pi]
		if p.R < 0 {
			continue
		}
		centers[pi] = astro.UnitVector(p.Ra, p.Dec)
		r2s[pi] = astro.Chord2FromAngle(p.R)
		minZ, maxZ := span.clip(astro.ZoneRange(p.Dec, p.R, heightDeg))
		if minZ > maxZ {
			continue
		}
		cov := astro.NewRaCover(p.Dec, p.R)
		for z := minZ; z <= maxZ; z++ {
			segs, n := astro.RaWindows(p.Ra, cov.HalfWidth(z, heightDeg))
			for s := 0; s < n; s++ {
				ws = append(ws, batchWindow{zone: z, probe: int32(pi), lo: segs[s][0], hi: segs[s][1]})
			}
		}
	}
	slices.SortFunc(ws, func(a, b batchWindow) int {
		switch {
		case a.zone < b.zone:
			return -1
		case a.zone > b.zone:
			return 1
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return int(a.probe - b.probe) // probe indices are non-negative int32s
	})
	return ws, &probeSet{centers: centers, r2s: r2s}
}

// expire drops the active windows whose upper bound lies below ra, keeping
// the rest in activation order, and returns the smallest upper bound left
// (+Inf when none is). While ra stays at or below that bound no window can
// expire, so the sweepers call expire only once a row's ra passes it.
func expire(active []batchWindow, ra float64) ([]batchWindow, float64) {
	keep := active[:0]
	minHi := math.Inf(1)
	for _, w := range active {
		if w.hi >= ra {
			keep = append(keep, w)
			if w.hi < minHi {
				minHi = w.hi
			}
		}
	}
	return keep, minHi
}

// zoneSweeper answers one zone's worth of sorted windows at a time.
// Implementations carry the per-worker state of one physical access path —
// a reusable cursor over the row B+tree, or a segment scanner over the
// columnar pages — so the sequential driver and the parallel pool share
// every line of orchestration, and a worker's state never crosses
// goroutines.
type zoneSweeper interface {
	// sweepZone merges ws (one zone's windows, sorted by lo) against the
	// zone's rows in ra order, emitting hits exactly as SearchTable would
	// per probe, less the rows ps.windows rejects. On error the sweeper must
	// be left reusable or inert; the drivers stop at the first error either
	// way.
	sweepZone(ws []batchWindow, ps *probeSet, emit func(int, ZoneRow)) error
	// close releases cursors/pins. Called once per sweeper.
	close()
}

// rowSweeper is the zoneSweeper over the row-major clustered zone table:
// one reusable TableCursor, re-seeked per window gap, with lazy column
// decode (the chord test reads only the leading chordTestCols columns).
// The cursor carries a leaf cache, reset at every zone boundary: within a
// zone the per-window re-seeks hit the cache instead of the pool, and the
// per-zone reset keeps each zone's pool-fetch sequence a pure function of
// its windows, so io-ops stay identical at every worker count.
type rowSweeper struct {
	tv     sqldb.TableView // the sweep's pinned version (Source.pin holds the guard)
	cur    *sqldb.TableCursor
	active []batchWindow
}

func (s *rowSweeper) sweepZone(ws []batchWindow, ps *probeSet, emit func(int, ZoneRow)) error {
	if s.cur == nil {
		s.cur = s.tv.NewSweepCursor()
	}
	s.cur.ResetLeafCache()
	var err error
	s.cur, s.active, err = sweepZoneRows(s.tv, ws, s.cur, s.active, ps, emit)
	return err
}

func (s *rowSweeper) close() {
	if s.cur != nil {
		s.cur.Close()
	}
}

// sweepInterrupted wraps a context failure so callers can errors.Is it
// against context.Canceled / context.DeadlineExceeded.
func sweepInterrupted(ctx context.Context) error {
	return fmt.Errorf("zone: sweep interrupted: %w", ctx.Err())
}

// zoneEnd returns the end of the same-zone window run beginning at ws[i]:
// the one grouping rule both the sequential and parallel sweeps share, so
// their per-zone units of work can never diverge.
func zoneEnd(ws []batchWindow, i int) int {
	j := i
	for j < len(ws) && ws[j].zone == ws[i].zone {
		j++
	}
	return j
}

// sweepSequential drives one sweeper through the prebuilt zone-grouped
// windows in order: Sweep's Workers == 1 path, and the fallback when a
// probe set collapses to too few zones to parallelise.
func sweepSequential(ctx context.Context, sw zoneSweeper, ws []batchWindow, ps *probeSet, fn func(int, ZoneRow)) error {
	defer sw.close()
	poll := ctx.Done() != nil
	for i := 0; i < len(ws); {
		if poll && ctx.Err() != nil {
			return sweepInterrupted(ctx)
		}
		j := zoneEnd(ws, i)
		if err := sw.sweepZone(ws[i:j], ps, fn); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// batchHit is one buffered result of a parallel sweep: the probe it
// answers and the neighbour row, in the zone's emission order.
type batchHit struct {
	probe int32
	row   ZoneRow
}

// hitBufs recycles emitted hit buffers back to the workers, bounding
// allocation by the in-flight zones rather than the total hits. Package
// scope, so the handful of sweeps of one pipeline run — and concurrent
// sweeps of different queries — reuse each other's buffers instead of each
// growing its own.
var hitBufs = sync.Pool{New: func() any { return new([]batchHit) }}

// errSweepSkipped marks a zone a worker declined to sweep because an
// earlier failure already aborted the search; it is filtered out of
// the parallel sweep's return value in favour of the real error.
var errSweepSkipped = errors.New("zone: sweep skipped after earlier failure")

// timedSequential drives sweepSequential, crediting the drive's wall time
// as worker busy time when metrics are attached (a sequential sweep is its
// own single worker). Both Sweep's workers==1 path and sweepParallel's
// single-group fallback come through here.
func timedSequential(ctx context.Context, sw zoneSweeper, ws []batchWindow, ps *probeSet, fn func(int, ZoneRow)) error {
	m := sweepMet.Load()
	if m == nil {
		return sweepSequential(ctx, sw, ws, ps, fn)
	}
	t0 := time.Now()
	err := sweepSequential(ctx, sw, ws, ps, fn)
	m.addBusy(time.Since(t0))
	return err
}

// sweepParallel runs the zone-grouped windows on a worker pool, one
// sweeper per worker (newSweeper is called on the worker's goroutine):
// zones are independent by construction (each is a disjoint clustered-key
// range), so workers claim zones from the sorted window list and sweep
// them concurrently, each with its own cursor and decode buffers over the
// thread-safe buffer pool. Per-zone hits buffer in memory and fn is
// called zone by zone in ascending order from the calling goroutine; see
// Sweep for the output contract this implements.
func sweepParallel(ctx context.Context, newSweeper func() zoneSweeper, ws []batchWindow, ps *probeSet,
	workers int, fn func(int, ZoneRow)) error {
	// Group the windows by zone: groups[g] = ws[starts[g]:starts[g+1]].
	var starts []int
	for i := 0; i < len(ws); i = zoneEnd(ws, i) {
		starts = append(starts, i)
	}
	starts = append(starts, len(ws))
	groups := len(starts) - 1
	if groups <= 1 {
		return timedSequential(ctx, newSweeper(), ws, ps, fn)
	}
	poll := ctx.Done() != nil
	if workers > groups {
		workers = groups
	}

	hits := make([]*[]batchHit, groups)
	errs := make([]error, groups)
	done := make([]chan struct{}, groups)
	for g := range done {
		done[g] = make(chan struct{})
	}
	var (
		next int64 // next unclaimed group, taken via atomic increment
		stop int32 // set when any worker fails; remaining groups are skipped
		wg   sync.WaitGroup
		// tokens bounds how far the workers may run ahead of the in-order
		// consumer: without it every zone's hits would be live at once and
		// hitBufs could never recycle. A worker holds one token
		// per claimed group; the consumer returns it after emitting.
		tokens = make(chan struct{}, 4*workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m := sweepMet.Load(); m != nil {
				// Wall-clock residency of this worker, token waits included:
				// the ops signal is "how much worker time do sweeps occupy",
				// which a stalled consumer should show, not hide.
				t0 := time.Now()
				defer func() { m.addBusy(time.Since(t0)) }()
			}
			sw := newSweeper()
			defer sw.close()
			for {
				tokens <- struct{}{}
				g := int(atomic.AddInt64(&next, 1)) - 1
				if g >= groups {
					<-tokens // nothing claimed; hand the token back
					return
				}
				if atomic.LoadInt32(&stop) == 0 && poll && ctx.Err() != nil {
					// The query is gone: fail this group so emission halts
					// and every worker sees stop on its next claim.
					errs[g] = sweepInterrupted(ctx)
					atomic.StoreInt32(&stop, 1)
				} else if atomic.LoadInt32(&stop) == 0 {
					buf := hitBufs.Get().(*[]batchHit)
					*buf = (*buf)[:0]
					errs[g] = sw.sweepZone(ws[starts[g]:starts[g+1]], ps,
						func(pi int, zr ZoneRow) {
							*buf = append(*buf, batchHit{probe: int32(pi), row: zr})
						})
					hits[g] = buf
					if errs[g] != nil {
						atomic.StoreInt32(&stop, 1)
					}
				} else {
					errs[g] = errSweepSkipped
				}
				close(done[g])
			}
		}()
	}

	// Emit in zone order while the workers run ahead. Emission halts at
	// the first zone that failed — or was skipped after a failure — so on
	// error fn has seen a clean prefix of the sequential call sequence,
	// never a sequence with a missing zone in the middle. The returned
	// error is a real sweep error (skip markers can only follow the
	// failure that caused them, but a preempted worker may record one at
	// a lower zone index, so they are filtered, not returned).
	var firstErr error
	emit := true
	for g := 0; g < groups; g++ {
		<-done[g]
		<-tokens // the claiming worker's token; frees a look-ahead slot
		if buf := hits[g]; buf != nil {
			if emit && errs[g] == nil {
				for i := range *buf {
					h := &(*buf)[i]
					fn(int(h.probe), h.row)
				}
			}
			hits[g] = nil
			hitBufs.Put(buf)
		}
		if errs[g] != nil {
			emit = false
			if firstErr == nil && errs[g] != errSweepSkipped {
				firstErr = errs[g]
			}
		}
	}
	wg.Wait()
	return firstErr
}

// sweepZoneRows merges one zone's windows (sorted by lo) against the zone's
// rows with a single forward cursor: windows activate as the scan reaches
// their lower ra bound, expire past their upper bound, and the cursor
// re-seeks only across gaps no window covers. Each row is decoded once and
// tested against the active windows: the chord test first, on the leading
// columns, then — for rows inside the radius, whose photometry tail is
// decoded — the probe's Window.
func sweepZoneRows(tv sqldb.TableView, ws []batchWindow, cur *sqldb.TableCursor, active []batchWindow,
	ps *probeSet, fn func(int, ZoneRow)) (*sqldb.TableCursor, []batchWindow, error) {
	centers, r2s, wins := ps.centers, ps.r2s, ps.windows
	zoneVal := sqldb.Int(int64(ws[0].zone))
	loVals := [2]sqldb.Value{zoneVal, {}}
	hiVals := [1]sqldb.Value{zoneVal} // inclusive bound on the whole zone
	active = active[:0]
	minHi := math.Inf(1) // smallest hi among active
	k := 0
	for k < len(ws) {
		loVals[1] = sqldb.Float(ws[k].lo)
		var err error
		cur, err = tv.RangeScanPrefixInto(loVals[:], hiVals[:], cur)
		if err != nil {
			return cur, active[:0], err
		}
		cur.SetEagerColumns(chordTestCols)
		reseek := false
		for cur.Next() {
			row := cur.RowPrefix(chordTestCols)
			ra, _ := row[2].AsFloat()
			for k < len(ws) && ws[k].lo <= ra {
				active = append(active, ws[k])
				if ws[k].hi < minHi {
					minHi = ws[k].hi
				}
				k++
			}
			if ra > minHi {
				active, minHi = expire(active, ra)
			}
			if len(active) == 0 {
				if k >= len(ws) {
					break
				}
				// Gap: the next window starts beyond this row.
				reseek = true
				break
			}
			cx, _ := row[4].AsFloat()
			cy, _ := row[5].AsFloat()
			cz, _ := row[6].AsFloat()
			var out ZoneRow
			decoded := false
			for _, w := range active {
				c := &centers[w.probe]
				dx := cx - c.X
				dy := cy - c.Y
				dz := cz - c.Z
				c2 := dx*dx + dy*dy + dz*dz
				if c2 >= r2s[w.probe] {
					continue
				}
				if !decoded {
					full := cur.Row()
					out.ObjID, _ = full[1].AsInt()
					out.Ra, _ = full[2].AsFloat()
					out.Dec, _ = full[3].AsFloat()
					out.I, _ = full[7].AsFloat()
					out.Gr, _ = full[8].AsFloat()
					out.Ri, _ = full[9].AsFloat()
					decoded = true
				}
				if wins != nil && !wins[w.probe].Contains(out.ObjID, out.I, out.Gr, out.Ri) {
					continue
				}
				out.Distance = chordDeg(c2)
				fn(int(w.probe), out)
			}
		}
		if err := cur.Err(); err != nil {
			return cur, active[:0], err
		}
		if !reseek {
			// The zone ran out of rows; windows past the last row see
			// nothing.
			break
		}
	}
	return cur, active[:0], nil
}
