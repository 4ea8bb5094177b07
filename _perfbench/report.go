package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"disk_mb_per_job", "MB"},
	{"recall", "ratio"},
	{"precision", "ratio"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []struct{ name, unit string }{
	{"http.submit_s", "s"},
	{"http.seeds_s", "s"},
	{"http.poll_s", "s"},
	{"http.pairs_s", "s"},
	{"http.checkpoint_s", "s"},
	{"http.delete_s", "s"},
	{"http.requests_per_job", "count"},
	{"http.retries_429", "count"},
	{"sched.slot_wait_s", "s"},
	{"sched.grants", "count"},
	{"engine.sweep_s", "s"},
	{"engine.sweeps", "count"},
	{"engine.buckets", "count"},
	{"engine.handoff_s", "s"},
	{"engine.seed_ingest_s", "s"},
	{"engine.links", "count"},
	{"engine.probe_cold_s", "s"},
	{"engine.probe_bucket_max_s", "s"},
	{"engine.probe_incr_s", "s"},
	{"codec.full_bytes", "bytes"},
	{"codec.delta_bytes", "bytes"},
	{"codec.encode_s", "s"},
	{"codec.decode_s", "s"},
	{"store.ckpt_write_s", "s"},
	{"store.ckpt_writes", "count"},
	{"store.write_bytes", "bytes"},
	{"store.fsyncs", "count"},
	{"store.fsync_s", "s"},
	{"store.replay_s", "s"},
	{"store.replays", "count"},
	{"graph.open_s", "s"},
	{"graph.opens", "count"},
	{"graph.probe_open_mapped_s", "s"},
	{"graph.probe_decode_heap_s", "s"},
	{"go.heap_mb", "MB"},
	{"client.cpu_s", "s"},
	{"unattributed_s", "s"},
	{"budget.http_s", "s"},
	{"budget.slot_wait_s", "s"},
	{"budget.engine_s", "s"},
	{"budget.seed_ingest_s", "s"},
	{"budget.handoff_s", "s"},
	{"budget.ckpt_write_s", "s"},
	{"budget.graph_open_s", "s"},
	{"budget.replay_s", "s"},
	{"budget.job_wall_s", "s"},
	{"trace.job_p50_s", "s"},
}

func (r *run) scrapeIfTraced(ctx context.Context, s *server) map[string]float64 {
	if !r.cfg.traced {
		return nil
	}
	return r.scrape(ctx, s)
}

// storeDeltas adds the store and scheduler counters' growth between two
// /metrics scrapes that bracket jobs finished jobs.
func (r *run) storeDeltas(before, after map[string]float64, jobs int) {
	if !r.cfg.traced {
		return
	}
	for _, name := range []string{
		"reconcile_store_write_bytes_total",
		"reconcile_store_fsync_seconds_count",
		"reconcile_store_fsync_seconds_sum",
		"reconcile_sched_slot_wait_seconds_count",
	} {
		r.layer["delta."+name] += after[name] - before[name]
	}
	r.layer["delta.jobs"] += float64(jobs)
}

// noteWork files a job's server-side work counts under its key, once: the
// first job of each key is the one runs are compared on.
func (r *run) noteWork(j *jobRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.work[j.key]
	if w == nil {
		w = map[string]int64{}
		r.work[j.key] = w
	}
	if _, seen := w["sweeps"]; seen {
		return
	}
	w["sweeps"] = j.kindCount[kindSweep]
	w["buckets"] = j.kindCount[kindBucket]
	w["ckpt_writes"] = j.kindCount[kindCkptWrite]
	w["seed_ingests"] = j.kindCount[kindSeedIngest]
	w["handoffs"] = j.kindCount[kindHandoff]
	w["links"] = int64(j.links)
}

// noteMetrics files the store counters' growth over one key's work, once.
func (r *run) noteMetrics(key string, before, after map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.work[key]
	if w == nil {
		w = map[string]int64{}
		r.work[key] = w
	}
	if _, seen := w["fsyncs"]; seen {
		return
	}
	w["fsyncs"] = int64(after["reconcile_store_fsync_seconds_count"] - before["reconcile_store_fsync_seconds_count"])
	w["write_bytes"] = int64(after["reconcile_store_write_bytes_total"] - before["reconcile_store_write_bytes_total"])
}

// noteBoot files one boot's replay and graph-open spans.
func (r *run) noteBoot(boot []span) {
	var replays, opens int64
	for _, s := range boot {
		secs := float64(s.End-s.Start) / 1e9
		switch s.Kind {
		case kindReplay:
			replays++
			r.layer["boot.replay_s"] += secs
		case kindGraphOpen:
			opens++
			r.layer["boot.open_s"] += secs
		}
	}
	r.layer["boot.replays"] += float64(replays)
	r.layer["boot.opens"] += float64(opens)
	r.layer["boot.count"]++
	if r.work["boot"] == nil {
		r.work["boot"] = map[string]int64{"replays": replays, "opens": opens}
	}
}

// result assembles the run's output line.
func (r *run) result() *result {
	r.mu.Lock()
	defer r.mu.Unlock()
	walls := make([]float64, len(r.jobs))
	for i, j := range r.jobs {
		walls[i] = j.wall()
	}
	sort.Float64s(walls)
	m := map[string]metric{}
	if !r.cfg.traced {
		vals := map[string]float64{
			"setup_s":         median(r.boots),
			"job_p50_s":       median(walls),
			"job_p90_s":       quantile(walls, 0.9),
			"jobs_per_s":      ratio(float64(len(walls)), r.timedWall),
			"peak_rss_mb":     mean(r.rss),
			"disk_mb_per_job": median(r.disk),
			"recall":          ratio(float64(r.correct), float64(r.nodes)),
			"precision":       ratio(float64(r.correct), float64(r.links)),
		}
		for _, e := range endToEnd {
			m[e.name] = metric{Value: vals[e.name], Unit: e.unit}
		}
	} else {
		vals := r.layerValues(walls)
		for _, e := range perLayer {
			m[e.name] = metric{Value: vals[e.name], Unit: e.unit}
		}
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
	}
	return &result{
		Correct:   r.failed == 0 && len(r.jobs) > 0,
		Attempted: attempted,
		Failed:    r.failed,
		Metrics:   m,
	}
}

// layerValues computes the per-layer metrics of a traced run. Caller holds
// r.mu.
func (r *run) layerValues(walls []float64) map[string]float64 {
	v := map[string]float64{}
	for k, x := range r.layer {
		v[k] = x
	}
	for _, route := range []string{"submit", "seeds", "poll", "pairs", "checkpoint", "delete"} {
		v["http."+route+"_s"] = median(r.reqs[route])
	}
	requests := 0
	for _, j := range r.jobs {
		requests += j.requests
	}
	v["http.requests_per_job"] = ratio(float64(requests), float64(len(r.jobs)))
	v["http.retries_429"] = float64(r.retries429)

	// Server-side spans and the budget: means over the jobs with a trace.
	var traced []*jobRec
	for _, j := range r.jobs {
		if j.traced {
			traced = append(traced, j)
		}
	}
	perJob := func(f func(j *jobRec) float64) float64 {
		total := 0.0
		for _, j := range traced {
			total += f(j)
		}
		return ratio(total, float64(len(traced)))
	}
	secs := func(kind string) float64 { return perJob(func(j *jobRec) float64 { return j.kindSecs[kind] }) }
	count := func(kind string) float64 {
		return perJob(func(j *jobRec) float64 { return float64(j.kindCount[kind]) })
	}
	v["sched.slot_wait_s"] = secs(kindSlotWait)
	v["engine.sweep_s"] = secs(kindSweep)
	v["engine.sweeps"] = count(kindSweep)
	v["engine.buckets"] = count(kindBucket)
	v["engine.handoff_s"] = secs(kindHandoff)
	v["engine.seed_ingest_s"] = secs(kindSeedIngest)
	v["engine.links"] = perJob(func(j *jobRec) float64 { return float64(j.links) })
	v["store.ckpt_write_s"] = secs(kindCkptWrite)
	v["store.ckpt_writes"] = count(kindCkptWrite)
	for _, l := range budgetLayers {
		v["budget."+l.name+"_s"] = perJob(func(j *jobRec) float64 { return j.budget[l.name] })
	}
	v["unattributed_s"] = perJob(func(j *jobRec) float64 { return j.budget["unattributed"] })
	v["budget.job_wall_s"] = perJob(func(j *jobRec) float64 { return j.wall() })

	jobs := r.layer["delta.jobs"]
	v["store.write_bytes"] = ratio(r.layer["delta.reconcile_store_write_bytes_total"], jobs)
	v["store.fsyncs"] = ratio(r.layer["delta.reconcile_store_fsync_seconds_count"], jobs)
	v["store.fsync_s"] = ratio(r.layer["delta.reconcile_store_fsync_seconds_sum"], jobs)
	v["sched.grants"] = ratio(r.layer["delta.reconcile_sched_slot_wait_seconds_count"], jobs)
	boots := r.layer["boot.count"]
	v["store.replay_s"] = ratio(r.layer["boot.replay_s"], boots)
	v["store.replays"] = ratio(r.layer["boot.replays"], boots)
	v["graph.open_s"] = ratio(r.layer["boot.open_s"], boots)
	v["graph.opens"] = ratio(r.layer["boot.opens"], boots)
	v["client.cpu_s"] = r.cpu
	v["trace.job_p50_s"] = median(walls)
	return v
}

// report prints the run in human form to w: every metric with its unit,
// the sample counts behind the percentiles, the failures, and (traced) the
// layer budget as shares of job wall time.
func (r *run) report(w io.Writer, res *result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mode := "end-to-end"
	list := endToEnd
	if r.cfg.traced {
		mode = "traced"
		list = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed %d (%s): %d jobs in %.3fs timed; attempted %d, failed %d, fail_ratio %.6f\n",
		r.cfg.workload, r.cfg.seed, mode, len(r.jobs), r.timedWall, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	if len(r.jobs) > 0 {
		// Completions per second of the phase show drift within a run.
		t0 := r.jobs[0].start
		for _, j := range r.jobs {
			if j.start.Before(t0) {
				t0 = j.start
			}
		}
		var per []int
		for _, j := range r.jobs {
			k := int(j.end.Sub(t0).Seconds())
			for len(per) <= k {
				per = append(per, 0)
			}
			per[k]++
		}
		fmt.Fprintf(w, "  completions per second: %v\n", per)
	}
	for _, e := range list {
		fmt.Fprintf(w, "  %-28s %14.6g %s%s\n", e.name, res.Metrics[e.name].Value, e.unit, r.samples(e.name))
	}
	if !r.cfg.traced {
		return
	}
	wall := res.Metrics["budget.job_wall_s"].Value
	if wall <= 0 {
		return
	}
	fmt.Fprintf(w, "  layer budget (mean per traced job, %.6fs wall):\n", wall)
	sum := 0.0
	for _, l := range budgetLayers {
		x := res.Metrics["budget."+l.name+"_s"].Value
		sum += x
		fmt.Fprintf(w, "    %-14s %10.6fs %6.1f%%\n", l.name, x, 100*x/wall)
	}
	un := res.Metrics["unattributed_s"].Value
	sum += un
	fmt.Fprintf(w, "    %-14s %10.6fs %6.1f%%\n", "unattributed", un, 100*un/wall)
	fmt.Fprintf(w, "    %-14s %10.6fs (rows sum to wall within %.2g s)\n", "sum", sum, math.Abs(sum-wall))
}

// samples names the sample count behind a percentile or median metric.
// Caller holds r.mu.
func (r *run) samples(name string) string {
	switch {
	case name == "job_p50_s" || name == "job_p90_s" || name == "trace.job_p50_s":
		return fmt.Sprintf("  (n=%d jobs)", len(r.jobs))
	case name == "setup_s":
		lo, hi := minMax(r.boots)
		return fmt.Sprintf("  (median of n=%d boots, %.4g..%.4g)", len(r.boots), lo, hi)
	case name == "peak_rss_mb":
		lo, hi := minMax(r.rss)
		return fmt.Sprintf("  (mean of n=%d windows, %.1f..%.1f)", len(r.rss), lo, hi)
	case name == "disk_mb_per_job":
		return fmt.Sprintf("  (median of n=%d settles)", len(r.disk))
	case strings.HasPrefix(name, "http.") && strings.HasSuffix(name, "_s"):
		route := strings.TrimSuffix(strings.TrimPrefix(name, "http."), "_s")
		return fmt.Sprintf("  (median of n=%d requests)", len(r.reqs[route]))
	}
	return ""
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean is used for per-window peak RSS: the peaks follow the garbage
// collector's cycle and cluster in two modes, where a median jumps
// between them from run to run.
func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return ratio(total, float64(len(xs)))
}

// median is the middle value of quartiles; 0 for no samples.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quantile interpolates linearly between the closest ranks of sorted
// (the common "type 7" definition); 0 for no samples. Only job_p90_s uses
// it; every median goes through quartiles.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
