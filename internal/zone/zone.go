// Package zone implements the zone-indexing strategy of Gray et al.
// (MSR-TR-2004-32) that the paper credits for the SQL implementation's
// speed: the celestial sphere is sliced into declination stripes ("zones"),
// objects are clustered by (zoneID, ra), and a radial neighbour search
// becomes, per overlapping zone, one ra range scan plus a squared-chord
// test — pure relational algebra, no geometry library in the inner loop.
//
// The package provides both an in-memory index (the compiled "stored
// procedure" hot path) and helpers that install the same structure into a
// sqldb database (Zone table with a clustered (zoneid, ra) index and the
// fGetNearbyObjEqZd table-valued function), where buffer-pool I/O is
// accounted.
//
// Two access paths answer neighbour searches against the DB zone table:
//
//   - SearchTable: one range scan per probe per overlapping zone (the
//     paper's literal fGetNearbyObjEqZd plan; the ablation baseline).
//   - Sweep: many probes answered in one pass — every probe's
//     (zone, ra-window) obligations sort by (zone, ra) and merge against
//     the zone order with one synchronized sweep per zone, optionally on
//     a worker pool (SweepOptions.Workers). Zones are disjoint ranges, so
//     workers claim them independently, each with a private cursor and
//     leaf cache over the thread-safe sharded buffer pool; per-zone hits
//     are buffered and re-emitted in zone order, making the output
//     bit-identical at any worker count.
//
// Sweep reads either physical representation through its Source argument:
// Rows (the clustered B+tree) or Columnar (the colstore zone projection
// InstallZoneTableColumnar attaches, where the chord test iterates packed
// float slices with no per-row decode and per-segment min/max ra bounds
// skip pages no window reaches).
//
// All paths agree bitwise; equivalence and wraparound-RA tests pin it.
package zone

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/astro"
	"repro/internal/sky"
)

// Entry is one indexed object.
type Entry struct {
	ObjID   int64
	Ra, Dec float64
	Vec     astro.Vec3
}

// Neighbor is a search result: an entry and its distance in degrees
// (chord-approximated, as the paper's function returns).
type Neighbor struct {
	Entry    Entry
	Distance float64
}

// Index is an in-memory zone index.
type Index struct {
	height  float64
	minZone int
	zones   [][]Entry // per zone, sorted by ra
}

// Build constructs an index over the galaxies with the given zone height in
// degrees (astro.ZoneHeightDeg reproduces the paper's 30 arcseconds).
func Build(gals []sky.Galaxy, heightDeg float64) (*Index, error) {
	if heightDeg <= 0 {
		return nil, fmt.Errorf("zone: non-positive zone height %g", heightDeg)
	}
	idx := &Index{height: heightDeg}
	if len(gals) == 0 {
		return idx, nil
	}
	minZ, maxZ := 1<<31, -(1 << 31)
	for i := range gals {
		z := astro.ZoneID(gals[i].Dec, heightDeg)
		if z < minZ {
			minZ = z
		}
		if z > maxZ {
			maxZ = z
		}
	}
	idx.minZone = minZ
	idx.zones = make([][]Entry, maxZ-minZ+1)
	for i := range gals {
		g := &gals[i]
		z := astro.ZoneID(g.Dec, heightDeg) - minZ
		idx.zones[z] = append(idx.zones[z], Entry{
			ObjID: g.ObjID, Ra: g.Ra, Dec: g.Dec,
			Vec: astro.UnitVector(g.Ra, g.Dec),
		})
	}
	for z := range idx.zones {
		es := idx.zones[z]
		sort.Slice(es, func(a, b int) bool {
			if es[a].Ra != es[b].Ra {
				return es[a].Ra < es[b].Ra
			}
			return es[a].ObjID < es[b].ObjID
		})
	}
	return idx, nil
}

// Height returns the zone height in degrees.
func (x *Index) Height() float64 { return x.height }

// Len returns the number of indexed entries.
func (x *Index) Len() int {
	n := 0
	for _, z := range x.zones {
		n += len(z)
	}
	return n
}

// Visit calls fn for every object within rDeg of (raDeg, decDeg), including
// an object at the exact centre. The traversal reproduces
// fGetNearbyObjEqZd: loop over overlapping zones, binary-search the ra
// window (narrowed per zone), and accept on squared chord length.
func (x *Index) Visit(raDeg, decDeg, rDeg float64, fn func(Neighbor)) {
	if len(x.zones) == 0 || rDeg < 0 {
		return
	}
	center := astro.UnitVector(raDeg, decDeg)
	r2 := astro.Chord2FromAngle(rDeg)
	minZ, maxZ := astro.ZoneRange(decDeg, rDeg, x.height)
	cov := astro.NewRaCover(decDeg, rDeg)
	for z := minZ; z <= maxZ; z++ {
		zi := z - x.minZone
		if zi < 0 || zi >= len(x.zones) {
			continue
		}
		es := x.zones[zi]
		if len(es) == 0 {
			continue
		}
		xw := cov.HalfWidth(z, x.height)
		segs, ns := astro.RaWindows(raDeg, xw)
		for s := 0; s < ns; s++ {
			loRa, hiRa := segs[s][0], segs[s][1]
			lo := sort.Search(len(es), func(i int) bool { return es[i].Ra >= loRa })
			for i := lo; i < len(es) && es[i].Ra <= hiRa; i++ {
				c2 := center.Chord2(es[i].Vec)
				if c2 < r2 {
					fn(Neighbor{Entry: es[i], Distance: chordDeg(c2)})
				}
			}
		}
	}
}

// Neighbors returns the matches of Visit as a slice sorted by (distance,
// objID) so results are deterministic across implementations.
func (x *Index) Neighbors(raDeg, decDeg, rDeg float64) []Neighbor {
	var out []Neighbor
	x.Visit(raDeg, decDeg, rDeg, func(n Neighbor) { out = append(out, n) })
	sortNeighbors(out)
	return out
}

// BruteForce computes the same result as Neighbors by scanning every entry:
// the oracle for property tests and the "no spatial index" ablation.
func BruteForce(gals []sky.Galaxy, raDeg, decDeg, rDeg float64) []Neighbor {
	center := astro.UnitVector(raDeg, decDeg)
	r2 := astro.Chord2FromAngle(rDeg)
	var out []Neighbor
	for i := range gals {
		g := &gals[i]
		v := astro.UnitVector(g.Ra, g.Dec)
		c2 := center.Chord2(v)
		if c2 < r2 {
			out = append(out, Neighbor{
				Entry:    Entry{ObjID: g.ObjID, Ra: g.Ra, Dec: g.Dec, Vec: v},
				Distance: chordDeg(c2),
			})
		}
	}
	sortNeighbors(out)
	return out
}

func sortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(a, b int) bool {
		if ns[a].Distance != ns[b].Distance {
			return ns[a].Distance < ns[b].Distance
		}
		return ns[a].Entry.ObjID < ns[b].Entry.ObjID
	})
}

// chordDeg converts a squared chord length to the paper's distance column:
// sqrt(chord²)/deg2rad, i.e. degrees to first order.
func chordDeg(chord2 float64) float64 {
	return math.Sqrt(chord2) / astro.Deg2Rad
}
