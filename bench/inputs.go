package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/astro"
	"repro/internal/sky"
	"repro/internal/zone"
)

// A sizing fixes how much sky and how much work a run covers. fullSize
// is the benchmark; the tests shrink it so every workload still runs
// end to end in a fraction of a second.
type sizing struct {
	region    astro.Box // synthetic survey
	target    astro.Box // MaxBCG target; the import region is target.Expand(1)
	fedRegion astro.Box // the federation's share of the survey
	probes    int       // probes per zone join and per federated sweep
	points    int       // primary-key lookups per sql_mix point batch
	readSpan  int       // rows a casjobs read aggregates
	loadRows  int       // rows one casjobs SELECT INTO materialises
	setups    int       // times set-up is repeated for setup_s's median
}

var fullSize = sizing{
	region:    astro.MustBox(193.9, 196.4, 1.2, 3.8),
	target:    astro.MustBox(194.9, 195.4, 1.9, 3.1),
	fedRegion: astro.MustBox(194, 196, 1, 3),
	probes:    256,
	points:    64,
	readSpan:  4000,
	loadRows:  5000,
	setups:    7,
}

// archiveSeed generates the sky every run works on. The archive is one
// fixed dataset, as DR1 is one sky; the run's seed draws the requests made
// of it. A catalog per seed would move the number of clusters inside the
// MaxBCG target by its Poisson noise and every pipeline cost with it
// (measured over ten seeds: op_ms_p50 spread 8.6 %, io_ops_per_op 25 %),
// which no bound could tell from a regression.
const archiveSeed = 20040801

// fedBatches is how many probe batches fed_sweep rotates through.
const fedBatches = 8

// readsPerLoad fixes the casjobs_mixed mix: the writer is released for
// one materialisation per this many completed reads.
const readsPerLoad = 20

// inputs is everything a workload feeds the program: the archive and the
// requests the seed draws. The program under test never sees the seed.
type inputs struct {
	size sizing
	cat  *sky.Catalog

	// probes drive the sql_mix zone join and the layer sweeps over the
	// whole region. fedProbes are the batches the federated sweep rotates
	// through over fedRegion: several, so that a run's bytes and pages
	// average over batches instead of hanging on where one batch fell.
	probes    []zone.Probe
	fedProbes [][]zone.Probe

	// sql_mix statement arguments, one entry per round.
	scanBoxes []astro.Box
	scanIMax  []float64
	pointIDs  [][]int64

	// casjobs_mixed: where every read's range starts (a row offset into
	// the MyDB table, an objid in DR1) and the first objid of every
	// load's source range.
	readLo []int64
	dr1Lo  []int64
	loadLo []int64
}

// probeInset keeps probe centres this far inside the region they search,
// more than the largest radius, so no probe loses part of its disc to the
// edge and the hit count does not depend on how many landed near one.
const probeInset = 0.15

// seededProbes places n probes at seeded positions in box. Their radii
// are always the same ladder from 0.02 to 0.12 degrees, dealt out in
// seeded order: the area searched, and so the number of hits, must not
// depend on the luck of the draw.
func seededProbes(rng *rand.Rand, box astro.Box, n int) []zone.Probe {
	ps := make([]zone.Probe, n)
	for i, k := range rng.Perm(n) {
		ps[i] = zone.Probe{
			Ra:  box.MinRa + rng.Float64()*box.Width(),
			Dec: box.MinDec + rng.Float64()*box.Height(),
			R:   0.02 + 0.1*(float64(k)+0.5)/float64(n),
		}
	}
	return ps
}

// genInputs builds the inputs for ops operations. Each family draws from
// its own generator (seed plus a fixed offset), so changing how many
// values one family needs never shifts another's.
func genInputs(seed int64, size sizing, ops int) (*inputs, error) {
	cat, err := sky.Generate(sky.GenConfig{Region: size.region, Seed: archiveSeed})
	if err != nil {
		return nil, fmt.Errorf("generate catalog: %w", err)
	}
	n := int64(len(cat.Galaxies))
	if n < int64(size.loadRows) || n < int64(size.readSpan) {
		return nil, fmt.Errorf("catalog of %d galaxies is smaller than a casjobs range", n)
	}
	in := &inputs{size: size, cat: cat}

	in.probes = seededProbes(rand.New(rand.NewSource(seed+1)), size.region.Expand(-probeInset), size.probes)
	rng := rand.New(rand.NewSource(seed + 2))
	in.fedProbes = make([][]zone.Probe, fedBatches)
	for i := range in.fedProbes {
		in.fedProbes[i] = seededProbes(rng, size.fedRegion.Expand(-probeInset), size.probes)
	}

	rng = rand.New(rand.NewSource(seed + 3))
	in.scanBoxes = make([]astro.Box, ops)
	in.scanIMax = make([]float64, ops)
	for i := range in.scanBoxes {
		w := size.region.Width() * (0.2 + 0.3*rng.Float64())
		h := size.region.Height() * (0.2 + 0.3*rng.Float64())
		ra := size.region.MinRa + rng.Float64()*(size.region.Width()-w)
		dec := size.region.MinDec + rng.Float64()*(size.region.Height()-h)
		in.scanBoxes[i] = astro.MustBox(ra, ra+w, dec, dec+h)
		in.scanIMax[i] = 17 + 4*rng.Float64()
	}

	rng = rand.New(rand.NewSource(seed + 4))
	in.pointIDs = make([][]int64, ops)
	for i := range in.pointIDs {
		ids := make([]int64, size.points)
		for k := range ids {
			ids[k] = cat.Galaxies[rng.Int63n(n)].ObjID
		}
		in.pointIDs[i] = ids
	}

	rng = rand.New(rand.NewSource(seed + 5))
	in.readLo = make([]int64, ops)
	in.dr1Lo = make([]int64, ops)
	first := cat.Galaxies[0].ObjID
	for i := range in.readLo {
		in.readLo[i] = rng.Int63n(int64(size.loadRows-size.readSpan) + 1)
		in.dr1Lo[i] = first + rng.Int63n(n-int64(size.readSpan)+1)
	}
	in.loadLo = make([]int64, ops/readsPerLoad+1)
	for i := range in.loadLo {
		in.loadLo[i] = first + rng.Int63n(n-int64(size.loadRows)+1)
	}
	return in, nil
}

// fingerprint serialises every generated input; the determinism test
// compares these byte for byte.
func (in *inputs) fingerprint() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := in.cat.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serialise catalog: %w", err)
	}
	for _, v := range []any{in.probes, in.scanBoxes, in.scanIMax, in.readLo, in.dr1Lo, in.loadLo} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("serialise inputs: %w", err)
		}
	}
	for _, ps := range in.fedProbes {
		if err := binary.Write(&buf, binary.LittleEndian, ps); err != nil {
			return nil, fmt.Errorf("serialise inputs: %w", err)
		}
	}
	for _, ids := range in.pointIDs {
		if err := binary.Write(&buf, binary.LittleEndian, ids); err != nil {
			return nil, fmt.Errorf("serialise inputs: %w", err)
		}
	}
	return buf.Bytes(), nil
}
