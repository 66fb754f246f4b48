// Package gridbcg is the public API of the reproduction of
// "When Database Systems Meet the Grid" (Nieto-Santisteban et al., CIDR
// 2005): the MaxBCG galaxy-cluster finder over a from-scratch SQL database
// engine with zone spatial indexing, the file-based TAM/Condor baseline it
// was compared against, and zone-partitioned cluster execution. The
// paper's §4 services — CasJobs and the data-grid federation — live in
// internal/casjobs and internal/fed, driven by cmd/casjobsd and
// cmd/gridworkerd.
//
// Quick start:
//
//	cat, _ := gridbcg.GenerateSky(gridbcg.SkyConfig{
//		Region: gridbcg.MustBox(194, 196.3, 1.4, 3.6), Seed: 1,
//	})
//	res, _ := gridbcg.FindClusters(cat, gridbcg.MustBox(194.9, 195.4, 2.3, 2.8))
//	fmt.Println(res.Summary())
//
// The heavier entry points (database-backed runs with Table 1-style task
// reports, multi-node partitioned runs, the TAM baseline) are re-exported
// below; see the examples directory for runnable scenarios and
// ARCHITECTURE.md ("Package pointers") for the system inventory.
package gridbcg

import (
	"repro/internal/astro"
	"repro/internal/cluster"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/tam"
)

// Core geometry and catalog types.
type (
	// Box is an ra/dec region of the sky.
	Box = astro.Box
	// Galaxy is one catalog row in MaxBCG's 5-space.
	Galaxy = sky.Galaxy
	// Catalog is a piece of synthetic sky with its k-correction table.
	Catalog = sky.Catalog
	// SkyConfig parameterises synthetic catalog generation.
	SkyConfig = sky.GenConfig
	// Kcorr is the expected BCG brightness/colour vs redshift table.
	Kcorr = sky.Kcorr
)

// Algorithm types.
type (
	// Params are the MaxBCG constants (see DefaultParams).
	Params = maxbcg.Params
	// Candidate is a likely BCG at its best-fitting redshift.
	Candidate = maxbcg.Candidate
	// Member is one (cluster, galaxy, distance) membership row.
	Member = maxbcg.Member
	// Result bundles candidates, clusters, and members of one run.
	Result = maxbcg.Result
	// Finder is the in-memory zone-indexed implementation.
	Finder = maxbcg.Finder
	// DBFinder is the database-backed implementation with per-task
	// elapsed/CPU/IO reporting (the paper's Table 1 rows).
	DBFinder = maxbcg.DBFinder
	// TaskReport is one run's per-task measurement block.
	TaskReport = maxbcg.TaskReport
)

// Substrate types.
type (
	// DB is the from-scratch SQL engine (one instance = one server).
	DB = sqldb.DB
	// TAMConfig shapes the file-based baseline pipeline.
	TAMConfig = tam.Config
	// ClusterConfig shapes a multi-node partitioned run.
	ClusterConfig = cluster.Config
	// ClusterResult is a partitioned run's outcome.
	ClusterResult = cluster.Result
)

// MustBox builds a Box and panics on invalid bounds; use astro.NewBox for
// checked construction.
func MustBox(minRa, maxRa, minDec, maxDec float64) Box {
	return astro.MustBox(minRa, maxRa, minDec, maxDec)
}

// NewBox validates and returns a Box.
func NewBox(minRa, maxRa, minDec, maxDec float64) (Box, error) {
	return astro.NewBox(minRa, maxRa, minDec, maxDec)
}

// GenerateSky builds a synthetic SDSS-like catalog with injected clusters
// calibrated to the paper's densities (~14,000 galaxies/deg², ~4.5
// clusters per 0.25 deg² field).
func GenerateSky(cfg SkyConfig) (*Catalog, error) { return sky.Generate(cfg) }

// NewKcorr builds a k-correction table with the given redshift resolution
// over (0, zMax]; the paper's configurations are NewKcorr(100, 0.5) for TAM
// and NewKcorr(1000, 0.5) for SQL.
func NewKcorr(steps int, zMax float64) (*Kcorr, error) { return sky.NewKcorr(steps, zMax) }

// DefaultParams returns the paper's algorithm constants (χ² < 7, 0.5°
// buffer, population sigmas 0.57/0.05/0.06).
func DefaultParams() Params { return maxbcg.DefaultParams() }

// NewFinder zone-indexes a catalog for in-memory cluster finding.
func NewFinder(cat *Catalog, p Params) (*Finder, error) {
	return maxbcg.NewFinder(cat, p, 0)
}

// FindClusters runs the full MaxBCG pipeline in memory over the target box
// with default parameters: the one-call quick start.
func FindClusters(cat *Catalog, target Box) (*Result, error) {
	f, err := maxbcg.NewFinder(cat, maxbcg.DefaultParams(), 0)
	if err != nil {
		return nil, err
	}
	return f.Run(target)
}

// OpenDB creates an in-memory database engine instance (frames 0 selects a
// 32 MiB buffer pool).
func OpenDB(frames int) *DB { return sqldb.Open(frames) }

// NewDBFinder prepares a database-backed finder in db: it creates the
// paper's schema and loads the k-correction table. Import a catalog with
// ImportGalaxies, then Run to get results plus the Table 1-style report.
func NewDBFinder(db *DB, p Params, kcorr *Kcorr) (*DBFinder, error) {
	return maxbcg.NewDBFinder(db, p, kcorr, 0)
}

// RunPartitioned executes MaxBCG across n independent database servers
// with zone partitioning and 1° duplicated buffers (the paper's §2.4
// cluster); the merged answer is identical to a sequential run.
func RunPartitioned(cat *Catalog, target Box, nodes int) (*ClusterResult, error) {
	return cluster.Run(cat, target, cluster.Config{
		Nodes:          nodes,
		Params:         maxbcg.DefaultParams(),
		IncludeMembers: true,
	})
}

// DefaultTAMConfig returns the paper's baseline configuration: 0.25 deg²
// fields, 0.25° buffer, 100 redshift steps, 1 GB simulated node RAM.
func DefaultTAMConfig() TAMConfig { return tam.DefaultConfig() }

// RunTAM executes the file-based baseline sequentially: stage Target and
// Buffer files per 0.25 deg² field under dir, process each field in RAM
// with linear buffer scans, and merge.
func RunTAM(cat *Catalog, target Box, cfg TAMConfig, dir string) (*Result, error) {
	return tam.Run(cat, target, cfg, dir)
}
