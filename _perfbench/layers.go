package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Server-side span kinds, as GET .../jobs/{id}/trace names them.
const (
	kindSweep      = "sweep"
	kindBucket     = "bucket"
	kindHandoff    = "engine-handoff"
	kindCkptWrite  = "checkpoint-write"
	kindReplay     = "checkpoint-replay"
	kindSlotWait   = "slot-wait"
	kindSeedIngest = "seed-ingest"
	kindGraphOpen  = "graph-open"
	kindResume     = "resume"
)

// budgetLayers are the layer-budget rows in attribution priority: an
// instant of a job's life covered by several layers' spans counts for the
// first of them. "http" is client-timed request time no server span
// explains; what no layer covers is unattributed.
var budgetLayers = []struct {
	name  string
	kinds []string
}{
	{"ckpt_write", []string{kindCkptWrite}},
	{"seed_ingest", []string{kindSeedIngest}},
	{"handoff", []string{kindHandoff}},
	{"graph_open", []string{kindGraphOpen}},
	{"replay", []string{kindReplay}},
	{"slot_wait", []string{kindSlotWait}},
	{"engine", []string{kindSweep, kindBucket}},
	{"http", nil},
}

// httpBudgetRoutes are the lifecycle requests whose client-side time is
// the http layer: everything but the polls that only wait.
var httpBudgetRoutes = map[string]bool{
	"submit": true, "seeds": true, "checkpoint": true, "cancel": true,
	"resume": true, "delete": true, "pairs": true,
}

type span struct {
	Kind  string `json:"kind"`
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
}

type traceView struct {
	Spans  []span `json:"spans"`
	Totals map[string]struct {
		Count int64 `json:"count"`
		Nanos int64 `json:"nanos"`
	} `json:"totals"`
}

// fetchTrace reads the job's server-side trace after its terminal state
// and folds it into the job record: span counts and seconds per kind over
// the job's life, and the layer budget. For a job restored after a
// restart it also returns the boot spans (replay and graph opens) that
// preceded the restore.
func (r *run) fetchTrace(ctx context.Context, j *jobRec, url string) (boot []span) {
	var tv traceView
	code, start, end, err := r.do(ctx, http.MethodGet, url+"/trace", nil, &tv)
	r.record(nil, "trace", start, end)
	if !r.expect(err == nil && code == http.StatusOK, "GET %s/trace: status %d, err %v", url, code, err) {
		return nil
	}
	// The job's life on the server starts after its last restore, if any:
	// the spans before the resume mark belong to earlier lives, except the
	// boot work observed just ahead of the mark.
	life := tv.Spans
	restored := false
	for i := len(tv.Spans) - 1; i >= 0; i-- {
		if tv.Spans[i].Kind == kindResume {
			restored = true
			life = tv.Spans[i+1:]
			for k := i - 1; k >= 0 && (tv.Spans[k].Kind == kindReplay || tv.Spans[k].Kind == kindGraphOpen); k-- {
				boot = append(boot, tv.Spans[k])
			}
			break
		}
	}
	j.kindCount = map[string]int64{}
	j.kindSecs = map[string]float64{}
	if restored {
		for _, s := range life {
			j.kindCount[s.Kind]++
			j.kindSecs[s.Kind] += float64(s.End-s.Start) / 1e9
		}
	} else {
		// A job never restored has lived only this life; the totals also
		// hold the spans the recorder's retention window dropped.
		for k, t := range tv.Totals {
			j.kindCount[k] = t.Count
			j.kindSecs[k] = float64(t.Nanos) / 1e9
		}
	}
	j.budget = budget(j, life)
	j.traced = true
	return boot
}

// budget splits the job's wall time into layer self times. Server spans
// are placed on the client's clock by one anchor: the run goroutine asks
// for its scheduler slot (the start of the first slot-wait span) as the
// lifecycle's first request returns. Every interval is clipped to the
// job's life, so the rows, with unattributed, sum to its wall time.
func budget(j *jobRec, life []span) map[string]float64 {
	wall := j.wall()
	out := map[string]float64{}
	anchor := -1
	for i, s := range life {
		if s.Kind == kindSlotWait {
			anchor = i
			break
		}
	}
	byKind := map[string][]ival{}
	if anchor >= 0 && len(j.calls) > 0 {
		shift := j.calls[0].end.Sub(j.start).Seconds() - float64(life[anchor].Start)/1e9
		for _, s := range life {
			byKind[s.Kind] = append(byKind[s.Kind], ival{float64(s.Start)/1e9 + shift, float64(s.End)/1e9 + shift})
		}
	}
	var covered []ival
	attributed := 0.0
	for _, l := range budgetLayers {
		var mine []ival
		for _, k := range l.kinds {
			mine = append(mine, byKind[k]...)
		}
		if l.name == "http" {
			for _, c := range j.calls {
				if httpBudgetRoutes[c.route] {
					mine = append(mine, ival{c.start.Sub(j.start).Seconds(), c.end.Sub(j.start).Seconds()})
				}
			}
		}
		merged := union(append(clip(mine, wall), covered...))
		self := length(merged) - length(covered)
		covered = merged
		out[l.name] = self
		attributed += self
	}
	out["unattributed"] = wall - attributed
	return out
}

type ival struct{ lo, hi float64 }

func clip(in []ival, hi float64) []ival {
	var out []ival
	for _, v := range in {
		if v.lo < 0 {
			v.lo = 0
		}
		if v.hi > hi {
			v.hi = hi
		}
		if v.hi > v.lo {
			out = append(out, v)
		}
	}
	return out
}

func union(in []ival) []ival {
	sort.Slice(in, func(a, b int) bool { return in[a].lo < in[b].lo })
	var out []ival
	for _, v := range in {
		if n := len(out); n > 0 && v.lo <= out[n-1].hi {
			if v.hi > out[n-1].hi {
				out[n-1].hi = v.hi
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

func length(in []ival) float64 {
	total := 0.0
	for _, v := range in {
		total += v.hi - v.lo
	}
	return total
}

// scrape reads GET /metrics and sums every sample by family name (labels
// dropped), e.g. reconcile_store_fsync_seconds_count over all shards.
func (r *run) scrape(ctx context.Context, s *server) map[string]float64 {
	out := map[string]float64{}
	var raw []byte
	code, start, end, err := r.do(ctx, http.MethodGet, s.base+"/metrics", nil, &raw)
	r.record(nil, "metrics", start, end)
	if !r.expect(err == nil && code == http.StatusOK, "GET /metrics: status %d, err %v", code, err) {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}
