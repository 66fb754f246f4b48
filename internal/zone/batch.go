package zone

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/astro"
)

// Batched zone join: the per-probe SearchTable plan costs one range
// scan per probe per overlapping zone. When the caller has many probes at
// once (spMakeCandidates visits every galaxy of the buffered area), the
// grid-file observation applies: probes sorted in index order should be
// answered by a merge sweep, not repeated point lookups. Sweep (sweep.go)
// sorts every probe's (zone, ra-window) obligation by (zone, ra) and
// walks each zone's column segments (colsweep.go) once, in the clustered
// (zoneid, ra) order, testing each row against exactly the probes whose
// window covers it.

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

// chordTestCols is how many leading columns every sweepable table shares
// with the Zone table: zoneid, objid, ra, dec, cx, cy, cz, the positions
// the chord test and a hit read.
const chordTestCols = 7

// probeSet is the per-probe state of one Sweep, read-only while it runs:
// what a fetched row is tested against once some window of the probe
// covers it.
type probeSet struct {
	centers []astro.Vec3 // unit vector of each probe centre
	r2s     []float64    // squared chord radius of each probe
	// windows is SweepOptions.Windows: nil keeps every row inside the radius.
	windows []Window
}

// buildWindows expands every probe into its per-zone (zone, ra-window)
// scan obligations, sorted by (zone, lo, probe): the front half of every
// sweep. The order is total, so windows
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
// expire, so the sweep calls expire only once a row's ra passes it.
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

// sweepInterrupted wraps a context failure so callers can errors.Is it
// against context.Canceled / context.DeadlineExceeded.
func sweepInterrupted(ctx context.Context) error {
	return fmt.Errorf("zone: sweep interrupted: %w", ctx.Err())
}

// zoneEnd returns the end of the same-zone window run beginning at ws[i]:
// the sweep's per-zone unit of work (what its metrics count as a zone
// group).
func zoneEnd(ws []batchWindow, i int) int {
	j := i
	for j < len(ws) && ws[j].zone == ws[i].zone {
		j++
	}
	return j
}

// sweepSequential drives the sweeper through the prebuilt zone-grouped
// windows in order, streaming every hit to fn as it is found, and polls
// ctx between zones.
func sweepSequential(ctx context.Context, sw *colSweeper, ws []batchWindow, ps *probeSet, fn func(int, ZoneRow)) error {
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
