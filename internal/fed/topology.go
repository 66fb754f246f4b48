// Package fed is the distributed-execution subsystem: it puts the
// partitioned MaxBCG pipeline behind a real wire protocol. A fleet of
// stripe workers (cmd/gridworkerd) each own one declination stripe of
// the zone table — their own sqldb, loaded at boot from a catalog
// slice — and serve a small HTTP/JSON RPC surface (/sweep, /exchange,
// /stats, /healthz, /metrics). A Coordinator scatters probe batches to
// the stripes whose zone ranges they intersect, applies per-worker
// timeouts/retries/hedging, and merges the workers' hit streams in
// stripe (declination) order, so the federated sweep is bit-identical
// to a centralised zone.Sweep over the same rows.
//
// The correctness backbone is zone ownership: every zone of the
// federation region is wholly owned by exactly one stripe (the stripe
// whose declination slice contains the zone's midpoint, clamped at the
// region edges). Workers start from raw catalog slices cut on stripe
// boundaries — which need not align with zone boundaries — and run a
// buffer-zone exchange at boot: each pulls the missing rows of its
// owned boundary zones from the neighbouring stripes and drops rows in
// zones it does not own. After the exchange, the per-stripe zone
// tables partition the centralised zone table by contiguous zone
// ranges, and because zone.Sweep emits hits grouped by ascending zone,
// concatenating the stripe streams in stripe order replays the exact
// centralised callback sequence.
package fed

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/astro"
	"repro/internal/perfmodel"
	"repro/internal/sky"
)

// Stripe is one worker's share of the federation: a half-open
// declination slice [MinDec, MaxDec) — the last stripe includes its
// upper edge — plus the endpoints that serve it. Endpoints[0] is the
// primary; any further entries are replicas the coordinator fails over
// to (and hedges against) when the primary misbehaves.
type Stripe struct {
	Name      string   `json:"name"`
	MinDec    float64  `json:"minDec"`
	MaxDec    float64  `json:"maxDec"`
	Endpoints []string `json:"endpoints,omitempty"`
}

// Topology fixes the federation layout: the sky region served, the
// zone height the workers' zone tables use, and the stripes in
// ascending declination order. All participants — coordinator and
// every worker — must agree on it bit for bit, since zone ownership
// and partition pruning are derived from it.
type Topology struct {
	Region     astro.Box `json:"region"`
	ZoneHeight float64   `json:"zoneHeight"`
	Stripes    []Stripe  `json:"stripes"`
}

// Height returns the zone height, defaulting to the SDSS 30 arcsec.
func (t Topology) Height() float64 {
	if t.ZoneHeight > 0 {
		return t.ZoneHeight
	}
	return astro.ZoneHeightDeg
}

// Clone deep-copies the topology so callers can mutate endpoint lists
// without aliasing each other's stripe slices.
func (t Topology) Clone() Topology {
	c := t
	c.Stripes = make([]Stripe, len(t.Stripes))
	for i, s := range t.Stripes {
		c.Stripes[i] = s
		c.Stripes[i].Endpoints = append([]string(nil), s.Endpoints...)
	}
	return c
}

// Validate checks the region's edges are finite and the stripes are
// non-empty, ascending, contiguous, and together cover the region's
// declination span exactly. Every bound check is written so that a NaN
// fails it: region and cuts arrive from the command line.
func (t Topology) Validate() error {
	if len(t.Stripes) == 0 {
		return fmt.Errorf("fed: topology has no stripes")
	}
	r := t.Region
	for _, x := range []float64{r.MinRa, r.MaxRa, r.MinDec, r.MaxDec} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("fed: topology region %v has a non-finite edge", r)
		}
	}
	if !(r.MaxDec > r.MinDec) || !(r.MaxRa > r.MinRa) {
		return fmt.Errorf("fed: topology region %v is empty", r)
	}
	const eps = 1e-9
	if !(math.Abs(t.Stripes[0].MinDec-r.MinDec) <= eps) {
		return fmt.Errorf("fed: first stripe starts at dec %.9f, region at %.9f",
			t.Stripes[0].MinDec, r.MinDec)
	}
	if !(math.Abs(t.Stripes[len(t.Stripes)-1].MaxDec-r.MaxDec) <= eps) {
		return fmt.Errorf("fed: last stripe ends at dec %.9f, region at %.9f",
			t.Stripes[len(t.Stripes)-1].MaxDec, r.MaxDec)
	}
	for i, s := range t.Stripes {
		if !(s.MaxDec > s.MinDec) {
			return fmt.Errorf("fed: stripe %d (%s) is empty: [%.9f, %.9f)", i, s.Name, s.MinDec, s.MaxDec)
		}
		if i > 0 && !(math.Abs(s.MinDec-t.Stripes[i-1].MaxDec) <= eps) {
			return fmt.Errorf("fed: stripe %d (%s) starts at %.9f but stripe %d ends at %.9f",
				i, s.Name, s.MinDec, i-1, t.Stripes[i-1].MaxDec)
		}
	}
	return nil
}

// StripeForDec returns the index of the stripe whose slice contains
// dec: half-open [MinDec, MaxDec), except the last stripe, which is
// inclusive of its upper edge (mirroring astro.Box.Contains so every
// catalog row inside the region lands in exactly one slice).
func (t Topology) StripeForDec(dec float64) int {
	n := len(t.Stripes)
	i := sort.Search(n, func(i int) bool { return dec < t.Stripes[i].MaxDec })
	if i == n {
		i = n - 1 // dec == last stripe's MaxDec (or numeric spill past it)
	}
	return i
}

// SliceContains reports whether dec falls in stripe i's raw catalog
// slice (the pre-exchange cut — see StripeForDec for edge semantics).
func (t Topology) SliceContains(i int, dec float64) bool {
	return t.StripeForDec(dec) == i && dec >= t.Stripes[i].MinDec
}

// ZoneExtent returns the inclusive range of zone ids the region spans.
func (t Topology) ZoneExtent() (minZone, maxZone int) {
	h := t.Height()
	return astro.ZoneID(t.Region.MinDec, h), astro.ZoneID(t.Region.MaxDec, h)
}

// Owner returns the index of the stripe that owns zone z: the stripe
// whose declination slice contains the zone's midpoint, clamped to the
// first/last stripe at the region edges. Ownership is what the
// buffer-zone exchange establishes physically — after Sync, stripe i's
// zone table holds exactly the region rows of its owned zones.
func (t Topology) Owner(z int) int {
	lo, hi := astro.ZoneDecBounds(z, t.Height())
	mid := (lo + hi) / 2
	if mid < t.Stripes[0].MinDec {
		return 0
	}
	if mid >= t.Stripes[len(t.Stripes)-1].MaxDec {
		return len(t.Stripes) - 1
	}
	return t.StripeForDec(mid)
}

// OwnedZones returns the inclusive zone range stripe i owns within the
// region, or ok=false when the stripe is so narrow that every zone
// midpoint in its slice belongs to a neighbour.
func (t Topology) OwnedZones(i int) (minZone, maxZone int, ok bool) {
	lo, hi := t.ZoneExtent()
	minZone, maxZone = 0, -1
	for z := lo; z <= hi; z++ { // owner is monotonic in z; spans are small (~hundreds of zones)
		if t.Owner(z) != i {
			continue
		}
		if maxZone < minZone {
			minZone = z
		}
		maxZone = z
	}
	return minZone, maxZone, maxZone >= minZone
}

// Placement describes one site for PlanStripes: a name and the
// perfmodel hardware profile of the machine that will host it. A zero
// System means "assume the paper's SQL server" (perfmodel.SQLConfig).
type Placement struct {
	Name   string
	System perfmodel.SystemConfig
}

// PlanStripes cuts the region into len(sites) declination stripes so
// that each site's share of the catalog rows is proportional to its
// perfmodel CPU capacity (CPUs x MHz) — the paper's heterogeneous-grid
// placement, driven by measured row counts instead of area. The cuts
// are row quantiles, so they do not align with zone boundaries; the
// buffer-zone exchange at worker boot is what squares that off.
func PlanStripes(cat *sky.Catalog, region astro.Box, sites []Placement) (Topology, error) {
	if len(sites) == 0 {
		return Topology{}, fmt.Errorf("fed: PlanStripes needs at least one site")
	}
	caps := make([]float64, len(sites))
	var total float64
	for i, s := range sites {
		sys := s.System
		if sys.CPUs == 0 {
			sys = perfmodel.SQLConfig()
		}
		caps[i] = float64(sys.CPUs) * float64(sys.CPUMHz)
		total += caps[i]
	}
	decs := make([]float64, 0, len(cat.Galaxies))
	for _, g := range cat.Galaxies {
		if region.Contains(g.Ra, g.Dec) {
			decs = append(decs, g.Dec)
		}
	}
	sort.Float64s(decs)
	if len(decs) < len(sites) {
		return Topology{}, fmt.Errorf("fed: region holds %d rows, fewer than %d stripes", len(decs), len(sites))
	}
	topo := Topology{Region: region, ZoneHeight: astro.ZoneHeightDeg,
		Stripes: make([]Stripe, len(sites))}
	lo, acc := region.MinDec, 0.0
	for i, s := range sites {
		acc += caps[i] / total
		hi := region.MaxDec
		if i < len(sites)-1 {
			r := int(math.Round(acc * float64(len(decs))))
			if r >= len(decs) {
				r = len(decs) - 1
			}
			hi = decs[r]
			if hi <= lo { // degenerate quantile (duplicate decs): keep slices non-empty
				hi = math.Nextafter(lo, math.Inf(1))
			}
			if hi >= region.MaxDec {
				hi = region.MaxDec - (region.MaxDec-lo)/float64(2*(len(sites)-i))
			}
		}
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("stripe%d", i)
		}
		topo.Stripes[i] = Stripe{Name: name, MinDec: lo, MaxDec: hi}
		lo = hi
	}
	if err := topo.Validate(); err != nil {
		return Topology{}, err
	}
	return topo, nil
}

// ParseCuts builds a topology from n+1 comma-separated declination cut
// points (the gridworkerd -cuts flag): cuts[0] must equal the region's
// MinDec and cuts[n] its MaxDec.
func ParseCuts(region astro.Box, cutsCSV string) (Topology, error) {
	fields := strings.Split(cutsCSV, ",")
	if len(fields) < 2 {
		return Topology{}, fmt.Errorf("fed: -cuts needs at least two declinations, got %q", cutsCSV)
	}
	cuts := make([]float64, len(fields))
	for i, f := range fields {
		var err error
		if cuts[i], err = strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
			return Topology{}, fmt.Errorf("fed: bad cut %q: %v", f, err)
		}
	}
	topo := Topology{Region: region, ZoneHeight: astro.ZoneHeightDeg,
		Stripes: make([]Stripe, len(cuts)-1)}
	for i := range topo.Stripes {
		topo.Stripes[i] = Stripe{
			Name:   fmt.Sprintf("stripe%d", i),
			MinDec: cuts[i],
			MaxDec: cuts[i+1],
		}
	}
	if err := topo.Validate(); err != nil {
		return Topology{}, err
	}
	return topo, nil
}

// FormatCuts renders the topology's declination cuts in the form
// ParseCuts accepts — the coordinator side of the -cuts flag — each in
// the shortest form that parses back to the same float64.
func FormatCuts(t Topology) string {
	var b []byte
	for i, s := range t.Stripes {
		if i == 0 {
			b = strconv.AppendFloat(b, s.MinDec, 'g', -1, 64)
		}
		b = append(b, ',')
		b = strconv.AppendFloat(b, s.MaxDec, 'g', -1, 64)
	}
	return string(b)
}
