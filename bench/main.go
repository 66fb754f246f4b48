// Command bench is the repository's benchmark: five named workloads,
// end-to-end metrics measured with tracing off, per-layer metrics from a
// separate traced run, a correctness oracle on every operation, and a
// comparer for paired result sets. BENCHMARK.json at the root of the
// repo names the workloads and metrics; README.md in this directory says
// why each exists and how they interact.
//
//	go run ./bench -seed 20040801                   all workloads, end to end
//	go run ./bench -seed 20040801 -trace 1          all workloads, per layer
//	go run ./bench -workload sql_mix -trace 1       one workload
//	go run ./bench -runs 5 -out bench/out/a.json    a set of results
//	go run ./bench -compare a.json b.json           b against a
//
// With -workload the last line of standard output is the one JSON object
// the benchmark driver reads. Without it every workload runs in a child
// process of its own, so heap and GC state do not leak between them.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// outDir is where trace files and, by default, nothing else is written;
// it is relative to the root of the checkout and git-ignored.
var outDir = filepath.Join("bench", "out")

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	runs     int
	compare  bool
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only and end with the driver's JSON line (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 20040801, "seed of every generated request")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "scales each workload's fixed operation count; about how long a run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	flag.StringVar(&o.out, "out", "", "append every run to this result file")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: how many times to run the set")
	flag.BoolVar(&o.compare, "compare", false, "compare result files: the first is the baseline, each other is judged against it")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.manifest:
		b, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case o.compare:
		if len(args) < 2 {
			return fmt.Errorf("-compare needs a baseline result file and at least one more")
		}
		return compareFiles(os.Stdout, args)
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.runs < 1:
		return fmt.Errorf("-seconds and -runs must be at least 1, -trace 0 or 1")
	case o.workload == "":
		return runAll(o)
	}

	env := currentEnv(o.seed, o.seconds)
	res, err := runWorkload(runConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds, traced: o.trace == 1,
		size: fullSize, outDir: outDir, log: os.Stdout,
	})
	if err != nil {
		return err
	}
	printRun(os.Stdout, env, res)
	if o.out != "" {
		if err := appendResult(o.out, env, res); err != nil {
			return err
		}
	}
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed their oracle", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a fresh child process of this same
// binary, the set as many times as asked. It keeps going after a failed
// workload so one report shows everything, and fails at the end.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("find own executable: %w", err)
	}
	var failed []string
	for r := 0; r < o.runs; r++ {
		for _, w := range workloads {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, w.name)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}
