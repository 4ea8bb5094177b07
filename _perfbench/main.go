// Command perfbench is the service benchmark for reconcile. It launches the
// cmd/serve binary as a subprocess on a fresh or prepared data directory,
// drives it over its public HTTP API in a closed loop, checks every
// finished job's links against the library's own answer, and prints one
// JSON result line as the last line of standard output.
//
// One run:
//
//	perfbench -serve <serve binary> -work <scratch dir> \
//	    --workload small-jobs|large-job|restart --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the same workload runs again with the benchmark's own spans recorded and
// the result carries the per-layer metrics and the layer budget.
//
// Summary (every workload, --runs seeds each, plus one traced run):
//
//	perfbench -serve ... -work ... --workload all --runs 10 --seconds 30
//
// run.sh builds both binaries and supplies -serve and -work; see
// BENCHMARK.json at the repository root for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	serveBin string
	workDir  string
	runs     int // summary mode: seeds per workload
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"small-jobs": smallJobs,
	"large-job":  largeJob,
	"restart":    restart,
}

var workloadOrder = []string{"small-jobs", "large-job", "restart"}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "small-jobs, large-job, restart, or all (summary mode)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "timed phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: record spans and report per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve", "", "path of the built cmd/serve binary")
	flag.StringVar(&cfg.workDir, "work", "", "scratch directory for data dirs and logs")
	flag.IntVar(&cfg.runs, "runs", 10, "summary mode: end-to-end runs per workload, one seed each")
	flag.Parse()
	cfg.traced = traceFlag == 1
	if cfg.serveBin == "" || cfg.workDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -serve and -work are required (use run.sh)")
		os.Exit(2)
	}
	if _, err := os.Stat(cfg.serveBin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve binary: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.workload == "all" {
		if err := summary(ctx, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, _, err := runOnce(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOnce runs one workload once and assembles its result, along with the
// traced run's server-side work counts per job key. Every server process
// it starts has exited when it returns.
func runOnce(ctx context.Context, cfg config) (*result, map[string]map[string]int64, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want small-jobs, large-job, restart or all)", cfg.workload)
	}
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// A run normally ends well inside this; the limit turns a hung server
	// into an error instead of a run that never exits.
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second+time.Duration(1.5*cfg.seconds*float64(time.Second)))
	defer cancel()
	r := newRun(cfg, dir)
	defer r.procs.killAll()
	if err := drive(ctx, r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	res := r.result()
	r.report(os.Stderr, res)
	return res, r.work, nil
}
