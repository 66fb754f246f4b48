package fed

import (
	"context"
	"fmt"
	"math"

	"repro/internal/astro"
	"repro/internal/cluster"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// RunConfig shapes a federated MaxBCG run. The zero value selects the
// paper defaults, matching cluster.Config's. The run uses the catalog's
// k-correction table and the topology's zone height.
type RunConfig struct {
	Params         maxbcg.Params // zero = maxbcg.DefaultParams()
	IncludeMembers bool
}

// ImportBox returns the region a centralised single-node run imports
// for target: the target expanded by twice the algorithm buffer,
// clipped to the survey (cluster.Plan with one node). A federation
// must cover exactly this box for its answer to be bit-identical to
// the centralised run — RunMaxBCG enforces it.
func ImportBox(target astro.Box, bufferDeg float64, survey astro.Box) (astro.Box, error) {
	parts, err := cluster.Plan(target, 1, bufferDeg, survey)
	if err != nil {
		return astro.Box{}, err
	}
	return parts[0].Import, nil
}

// boundSweeper pins a context to the coordinator so the DBFinder's
// context-free sweep calls still honour the run's cancellation.
type boundSweeper struct {
	c   *Coordinator
	ctx context.Context
}

func (b boundSweeper) Sweep(_ context.Context, probes []zone.Probe, fn func(int, zone.ZoneRow)) error {
	return b.c.Sweep(b.ctx, probes, fn)
}

// RunMaxBCG executes the full MaxBCG pipeline with the zone joins
// federated through c: the Galaxy table loads coordinator-side, spZone
// builds the coordinator's Zone from it as the candidate scan's probe
// list (the stripes built the zone tables the sweeps read at boot), and
// every batched sweep scatters across the workers. The result — candidates,
// clusters, members, and their order — is bit-identical to a
// centralised cluster.Run over the same catalog and target, which is
// what the equivalence and end-to-end tests assert.
func RunMaxBCG(ctx context.Context, c *Coordinator, cat *sky.Catalog, target astro.Box, cfg RunConfig) (*maxbcg.Result, maxbcg.TaskReport, error) {
	params := cfg.Params
	if params == (maxbcg.Params{}) {
		params = maxbcg.DefaultParams()
	}
	imp, err := ImportBox(target, params.BufferDeg, cat.Region)
	if err != nil {
		return nil, maxbcg.TaskReport{}, err
	}
	if !boxesEqual(c.topo.Region, imp) {
		return nil, maxbcg.TaskReport{}, fmt.Errorf(
			"fed: topology region %v does not match the run's import box %v; "+
				"build the topology over ImportBox(target, buffer, survey) so the "+
				"stripes hold exactly the rows a centralised run would index",
			c.topo.Region, imp)
	}

	finder, err := maxbcg.NewDBFinder(sqldb.OpenPool(sqldb.PoolConfig{}), params, cat.Kcorr, c.topo.Height())
	if err != nil {
		return nil, maxbcg.TaskReport{}, err
	}
	finder.Remote = boundSweeper{c: c, ctx: ctx}
	if _, err := finder.ImportGalaxies(cat, imp); err != nil {
		return nil, maxbcg.TaskReport{}, err
	}
	return finder.Run(target, cfg.IncludeMembers)
}

func boxesEqual(a, b astro.Box) bool {
	const eps = 1e-9
	return math.Abs(a.MinRa-b.MinRa) <= eps && math.Abs(a.MaxRa-b.MaxRa) <= eps &&
		math.Abs(a.MinDec-b.MinDec) <= eps && math.Abs(a.MaxDec-b.MaxDec) <= eps
}
