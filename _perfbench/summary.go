package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// summary runs every workload cfg.runs times untraced, one seed per run
// starting at cfg.seed, and once traced on cfg.seed right after the
// untraced run of that seed, each as its own process through the
// single-run contract. It prints each metric's median and quartiles per
// workload and the tracing overhead on job_p50_s: the traced run against
// the untraced run of the same seed, so the inputs are the same.
func summary(ctx context.Context, cfg config) error {
	if cfg.runs < 1 {
		return fmt.Errorf("--runs %d: want at least 1", cfg.runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(workload string, seed uint64, traced bool) (*result, error) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.CommandContext(ctx, self, "-serve", cfg.serveBin, "-work", cfg.workDir,
			"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
		}
		return &res, nil
	}
	var report bytes.Buffer
	for _, w := range workloadOrder {
		values := map[string][]float64{}
		allCorrect := true
		var traced *result
		for i := 0; i < cfg.runs; i++ {
			res, err := one(w, cfg.seed+uint64(i), false)
			if err != nil {
				return err
			}
			allCorrect = allCorrect && res.Correct
			for _, e := range endToEnd {
				values[e.name] = append(values[e.name], res.Metrics[e.name].Value)
			}
			if i == 0 {
				if traced, err = one(w, cfg.seed, true); err != nil {
					return err
				}
				allCorrect = allCorrect && traced.Correct
			}
		}
		fmt.Fprintf(&report, "== %s: %d end-to-end runs (seeds %d..%d), all correct: %v\n",
			w, cfg.runs, cfg.seed, cfg.seed+uint64(cfg.runs)-1, allCorrect)
		fmt.Fprintf(&report, "  %-18s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
		for _, e := range endToEnd {
			q1, med, q3 := quartiles(values[e.name])
			fmt.Fprintf(&report, "  %-18s %12.6g %12.6g %12.6g %7.2f%%  %s\n", e.name, q1, med, q3, 100*ratio(q3-q1, med), e.unit)
		}
		p50 := values["job_p50_s"][0]
		tp50 := traced.Metrics["trace.job_p50_s"].Value
		fmt.Fprintf(&report, "  tracing overhead on job_p50_s, seed %d: traced %.6gs vs untraced %.6gs (%+.1f%%)\n",
			cfg.seed, tp50, p50, 100*(ratio(tp50, p50)-1))
		fmt.Fprintf(&report, "  layer budget, traced seed %d (mean per job):\n", cfg.seed)
		wall := traced.Metrics["budget.job_wall_s"].Value
		for _, l := range budgetLayers {
			x := traced.Metrics["budget."+l.name+"_s"].Value
			fmt.Fprintf(&report, "    %-14s %10.6fs %6.1f%%\n", l.name, x, 100*ratio(x, wall))
		}
		un := traced.Metrics["unattributed_s"].Value
		fmt.Fprintf(&report, "    %-14s %10.6fs %6.1f%%\n    %-14s %10.6fs\n", "unattributed", un, 100*ratio(un, wall), "job wall", wall)
	}
	_, err = os.Stdout.Write(report.Bytes())
	return err
}

// quartiles returns the first quartile, median and third quartile by
// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles: j = i*(n+1)//4 clamped to 1..n-1, then
		// weights by the exact remainder (extrapolating when clamped).
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
