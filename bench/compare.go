package main

import (
	"fmt"
	"io"
)

// sample is one metric's values across the runs of one result set.
type sample struct {
	values     []float64
	unresolved bool // some run could not measure it
}

// resultSet indexes a result file by (workload, metric) and sums its
// failures per workload.
type resultSet struct {
	metrics   map[string]map[string]*sample
	attempted map[string]int
	failed    map[string]int
}

func indexResults(rf *resultFile) *resultSet {
	rs := &resultSet{
		metrics:   make(map[string]map[string]*sample),
		attempted: make(map[string]int),
		failed:    make(map[string]int),
	}
	for _, r := range rf.Runs {
		if rs.metrics[r.Workload] == nil {
			rs.metrics[r.Workload] = make(map[string]*sample)
		}
		for name, m := range r.Metrics {
			s := rs.metrics[r.Workload][name]
			if s == nil {
				s = &sample{}
				rs.metrics[r.Workload][name] = s
			}
			s.values = append(s.values, m.Value)
		}
		for _, name := range r.Unresolved {
			if s := rs.metrics[r.Workload][name]; s != nil {
				s.unresolved = true
			}
		}
		rs.attempted[r.Workload] += r.Attempted
		rs.failed[r.Workload] += r.Failed
	}
	return rs
}

func (rs *resultSet) failedRatio(workload string) float64 {
	if rs.attempted[workload] == 0 {
		return 0
	}
	return float64(rs.failed[workload]) / float64(rs.attempted[workload])
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictNone       = "-" // per-layer metrics carry no bound
)

// judge compares a candidate sample with the baseline's. worse is the
// share of the baseline median by which the candidate's median is worse
// (negative when it is better). A move past the bound is a regression
// however noisy the runs; short of that, runs whose own spread exceeds
// the bound cannot show "unchanged", so the pair is unresolved.
func judge(d metricDef, base, cand *sample) (worse float64, verdict string) {
	_, a, _ := quartiles(base.values)
	_, b, _ := quartiles(cand.values)
	if a != 0 {
		worse = (b - a) / a
		if d.better == "higher" {
			worse = -worse
		}
	}
	switch {
	case d.bound == 0:
		return worse, verdictNone
	case base.unresolved || cand.unresolved:
		return worse, verdictUnresolved
	case worse > d.bound:
		return worse, verdictRegression
	case spread(base.values) > d.bound || spread(cand.values) > d.bound:
		return worse, verdictUnresolved
	case worse < -d.bound:
		return worse, verdictImproved
	}
	return worse, verdictOK
}

// compareFiles judges every result file after the first against the
// first. It fails on any regression, on a higher failed ratio, and on
// files that must not be compared at all.
func compareFiles(w io.Writer, paths []string) error {
	files := make([]*resultFile, len(paths))
	for i, p := range paths {
		rf, err := readResultFile(p)
		if err != nil {
			return err
		}
		if i > 0 {
			if why := files[0].Env.comparable(rf.Env); why != "" {
				return fmt.Errorf("refusing to compare %s with %s: %s", p, paths[0], why)
			}
		}
		files[i] = rf
	}
	base := indexResults(files[0])
	bad := 0
	for i := 1; i < len(files); i++ {
		fmt.Fprintf(w, "baseline %s (commit %s, %d runs)  vs  %s (commit %s, %d runs); seed %d, %d s, GOMAXPROCS %d\n",
			paths[0], files[0].Env.Commit, len(files[0].Runs), paths[i], files[i].Env.Commit, len(files[i].Runs),
			files[0].Env.Seed, files[0].Env.Seconds, files[0].Env.GOMAXPROCS)
		bad += compareSets(w, base, indexResults(files[i]))
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// compareSets prints one line per (workload, metric) both sets measured
// and returns how many of them regressed.
func compareSets(w io.Writer, base, cand *resultSet) (bad int) {
	fmt.Fprintf(w, "%-17s %-42s %-6s %36s %36s %8s %7s  %s\n",
		"workload", "metric", "unit", "baseline median [q1, q3] n", "candidate median [q1, q3] n", "worse", "bound", "verdict")
	quart := func(s *sample) string {
		q1, q2, q3 := quartiles(s.values)
		return fmt.Sprintf("%.5g [%.5g, %.5g] %d", q2, q1, q3, len(s.values))
	}
	for _, wl := range workloads {
		if base.metrics[wl.name] == nil || cand.metrics[wl.name] == nil {
			continue
		}
		if fb, fc := base.failedRatio(wl.name), cand.failedRatio(wl.name); fc > fb {
			fmt.Fprintf(w, "%-17s failed_ratio rose from %g to %g  %s\n", wl.name, fb, fc, verdictRegression)
			bad++
		}
		for _, set := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range set {
				a, b := base.metrics[wl.name][d.name], cand.metrics[wl.name][d.name]
				if a == nil || b == nil {
					continue
				}
				worse, verdict := judge(d, a, b)
				if verdict == verdictRegression {
					bad++
				}
				bound := "-"
				if d.bound > 0 {
					bound = fmt.Sprintf("%.1f%%", d.bound*100)
				}
				fmt.Fprintf(w, "%-17s %-42s %-6s %36s %36s %+7.1f%% %7s  %s\n",
					wl.name, d.name, d.unit, quart(a), quart(b), worse*100, bound, verdict)
			}
		}
	}
	return bad
}
