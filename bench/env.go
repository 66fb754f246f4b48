package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded in every result and trace file. Results are
// only comparable when Seed, Seconds and GOMAXPROCS agree; the rest tells
// a reader where a number came from.
type environment struct {
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnv(seed int64, seconds int) environment {
	return environment{
		Commit:     gitCommit(),
		Seed:       seed,
		Seconds:    seconds,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// comparable reports why two environments' results must not be compared,
// or "" when they may.
func (e environment) comparable(o environment) string {
	switch {
	case e.Seed != o.Seed:
		return fmt.Sprintf("seeds differ (%d vs %d)", e.Seed, o.Seed)
	case e.Seconds != o.Seconds:
		return fmt.Sprintf("run lengths, and so op counts, differ (%d s vs %d s)", e.Seconds, o.Seconds)
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs (%d vs %d)", e.GOMAXPROCS, o.GOMAXPROCS)
	}
	return ""
}

// gitCommit asks git for HEAD; outside a work tree (the driver's
// checkout is a plain directory) the commit is simply unknown.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Each
// workload runs in a process of its own, so this is the workload's peak.
func peakRSSMB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("read VmHWM from /proc/self/status: %q: %w", v, err)
	}
	return kb / 1024, nil
}
