package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sociograph/reconcile"
)

// Workload shapes. Instances are drawn from the run's seed in set-up.
const (
	tinyNodes   = 48  // small-jobs: nodes per side
	tinyPool    = 511 // small-jobs: instances per tenant (coprime with the 4 shapes)
	tinyKeep    = 32  // small-jobs: finished jobs a tenant keeps; older ones are deleted
	largeNodes  = 100_000
	largePool   = 3 // large-job: instances the job sequence cycles through
	restartN    = 25_000
	restartJobs = 32  // restart: jobs in the template data dir
	seedBatch   = 500 // restart: identity seeds sent to each restored job
	setupBoots  = 15  // small-jobs, large-job: boots whose median is setup_s
)

// smallShapes are the four lifecycle shapes small-jobs cycles through.
var smallShapes = []string{"batch", "incremental", "churn", "delete"}

// smallJobs: two tenants, one connection each, cycling tiny instances
// through the four lifecycle shapes on a fresh data dir.
func smallJobs(ctx context.Context, r *run) error {
	tenants := []string{"bench-a", "bench-b"}
	rng := reconcile.NewRand(r.cfg.seed)
	pools := make([][]*instance, len(tenants))
	for t := range tenants {
		for i := 0; i < tinyPool; i++ {
			inst, err := tinyInstance(ctx, rng.Split(), tinyNodes)
			if err != nil {
				return err
			}
			pools[t] = append(pools[t], inst)
		}
	}
	s, err := r.bootFresh(ctx, setupBoots)
	if err != nil {
		return err
	}
	defer r.procs.stop(s)
	r.connect(len(tenants))
	r.pollEvery = 2 * time.Millisecond
	for _, name := range tenants {
		r.send(ctx, nil, "admin", http.MethodPut, s.base+"/v1/admin/tenants/"+name, []byte(`{"name":"`+name+`"}`), nil, http.StatusOK)
	}

	// Each tenant keeps its last tinyKeep finished jobs and deletes older
	// ones between lifecycles, so memory and disk reach a steady state
	// instead of growing with the run's throughput.
	kept := make([][]string, len(tenants))
	lifecycle := func(ctx context.Context, w, i int) *jobRec {
		inst := pools[w][i%tinyPool]
		shape := smallShapes[i%len(smallShapes)]
		key := fmt.Sprintf("%s/%d/%s", tenants[w], i%tinyPool, shape)
		j := r.smallLifecycle(ctx, s.base+"/v1/tenants/"+tenants[w]+"/jobs", inst, shape, key)
		if j != nil {
			r.score(fmt.Sprintf("%s/%d", tenants[w], i%tinyPool), inst.want, inst.n)
			if shape != "delete" {
				kept[w] = append(kept[w], j.url)
			}
		}
		for len(kept[w]) > tinyKeep {
			r.send(ctx, nil, "delete", http.MethodDelete, kept[w][0], nil, nil, http.StatusOK)
			kept[w] = kept[w][1:]
		}
		return j
	}
	var wg sync.WaitGroup // warm-up: one untimed batch job per tenant
	for w := range tenants {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lifecycle(ctx, w, 0)
		}(w)
	}
	wg.Wait()

	before := r.scrapeIfTraced(ctx, s)
	stopRSS := r.sampleRSS(s, time.Second)
	r.timedWall = r.timed(ctx, len(tenants), func(ctx context.Context, w, i int) {
		if j := lifecycle(ctx, w, i); j != nil {
			r.finishJob(j)
		}
	})
	stopRSS()
	r.storeDeltas(before, r.scrapeIfTraced(ctx, s), len(r.jobs))
	r.settle(ctx, s)
	if r.cfg.traced {
		r.layer["go.heap_mb"] = r.scrape(ctx, s)["reconcile_go_heap_bytes"] / (1 << 20)
		return r.probe(ctx, pools[0])
	}
	return nil
}

// smallLifecycle drives one small job through its shape and returns its
// record, or nil when an operation failed.
func (r *run) smallLifecycle(ctx context.Context, base string, inst *instance, shape, key string) *jobRec {
	j := &jobRec{key: key, start: time.Now()}
	var created struct {
		ID string `json:"id"`
	}
	if _, ok := r.send(ctx, j, "submit", http.MethodPost, base, inst.body, &created, http.StatusAccepted); !ok {
		return nil
	}
	url := base + "/" + created.ID
	j.url = url
	switch shape {
	case "batch":
		if !r.awaitDone(ctx, j, url, inst.want) {
			return nil
		}
	case "incremental":
		if !r.awaitDone(ctx, j, url, inst.want) {
			return nil
		}
		for _, st := range inst.steps {
			if st.conflict {
				// The batch clashes with an inferred link by construction;
				// the service must refuse it whole.
				if _, ok := r.send(ctx, j, "seeds", http.MethodPost, url+"/seeds", st.body, nil, http.StatusConflict); !ok {
					return nil
				}
				continue
			}
			if _, ok := r.send(ctx, j, "seeds", http.MethodPost, url+"/seeds", st.body, nil, http.StatusAccepted); !ok {
				return nil
			}
			if !r.awaitDone(ctx, j, url, st.want) {
				return nil
			}
		}
	case "churn":
		// Checkpoint and cancel race the run on purpose; whichever state the
		// job stops in, resume must finish it with the uninterrupted links.
		if _, ok := r.send(ctx, j, "checkpoint", http.MethodPost, url+"/checkpoint", nil, nil, http.StatusOK, http.StatusAccepted); !ok {
			return nil
		}
		if _, ok := r.send(ctx, j, "cancel", http.MethodPost, url+"/cancel", nil, nil, http.StatusAccepted); !ok {
			return nil
		}
		v, ok := r.awaitSettled(ctx, j, url)
		if !ok {
			return nil
		}
		switch v.Status {
		case "cancelled":
			if _, ok := r.send(ctx, j, "resume", http.MethodPost, url+"/resume", nil, nil, http.StatusAccepted); !ok {
				return nil
			}
			if !r.awaitDone(ctx, j, url, inst.want) {
				return nil
			}
		case "done":
			j.end = time.Now()
			j.links = len(v.Pairs)
			if !r.checkPairs(url, v.Pairs, inst.want) {
				return nil
			}
		default:
			r.expect(false, "%s: settled as %q (%s) after cancel", url, v.Status, v.Error)
			return nil
		}
	case "delete":
		if !r.awaitDone(ctx, j, url, inst.want) {
			return nil
		}
		if _, ok := r.send(ctx, j, "delete", http.MethodDelete, url, nil, nil, http.StatusOK); !ok {
			return nil
		}
		j.end = time.Now()
	}
	if r.cfg.traced && shape != "delete" {
		r.fetchTrace(ctx, j, url)
		r.noteWork(j)
	}
	return j
}

// largeJob: one connection submits a sequence of cold PA jobs on a data
// dir whose jobs checkpoint as range shards. Each job is deleted once the
// next one starts, so memory and disk hold one finished job at a time.
// The untimed warm-up job runs on a fresh data dir whose server is then
// SIGKILLed; set-up time is serve booting on linked copies of that dir
// (linkTree), each boot replaying the finished warm-up job, and the last
// boot serves the run.
func largeJob(ctx context.Context, r *run) error {
	rng := reconcile.NewRand(r.cfg.seed)
	var pool []*instance
	for i := 0; i < largePool; i++ {
		inst, err := paInstance(ctx, rng.Split(), largeNodes, seedBatch)
		if err != nil {
			return err
		}
		pool = append(pool, inst)
	}
	flags := []string{"-range-nodes", "32768"}
	template := filepath.Join(r.dir, "template")
	s, err := r.procs.startServer(ctx, r.cfg.serveBin, template, template+".log", flags...)
	if err != nil {
		return err
	}
	r.connect(1)
	r.pollEvery = 10 * time.Millisecond
	var base string
	prev := ""
	one := func(ctx context.Context, i int) *jobRec {
		if prev != "" {
			r.send(ctx, nil, "delete", http.MethodDelete, base+"/"+prev, nil, nil, http.StatusOK)
			prev = ""
		}
		inst := pool[i%largePool]
		before := r.scrapeIfTraced(ctx, s)
		if _, err := s.peakRSSMB(true); err != nil {
			r.expect(false, "resetting serve peak RSS: %v", err)
		}
		j := &jobRec{key: fmt.Sprintf("large/%d", i%largePool), start: time.Now()}
		var created struct {
			ID string `json:"id"`
		}
		if _, ok := r.send(ctx, j, "submit", http.MethodPost, base, inst.body, &created, http.StatusAccepted); !ok {
			return nil
		}
		prev = created.ID
		if !r.awaitDone(ctx, j, base+"/"+created.ID, inst.want) {
			return nil
		}
		r.peakRSS(s, false)
		if r.cfg.traced {
			r.fetchTrace(ctx, j, base+"/"+created.ID)
			r.noteWork(j)
			r.noteMetrics(j.key, before, r.scrape(ctx, s))
		}
		r.score(j.key, inst.want, inst.n)
		return j
	}
	base = s.base + "/v1/jobs"
	warm := one(ctx, 0)
	r.procs.crash(s)
	if warm == nil {
		return fmt.Errorf("warm-up job failed")
	}
	for i := 0; i < setupBoots; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("boot-%d", i))
		if err := linkTree(template, dir); err != nil {
			return err
		}
		if s, err = r.boot(ctx, dir, flags...); err != nil {
			return err
		}
		if r.cfg.traced {
			r.noteBoot(r.fetchTrace(ctx, &jobRec{}, s.base+"/v1/jobs/"+prev))
		}
		if i < setupBoots-1 {
			r.procs.crash(s)
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	defer r.procs.stop(s)
	base = s.base + "/v1/jobs" // prev, the warm-up job, was restored on this server
	r.mu.Lock()
	r.rss = nil // the warm-up's peak is not a timed sample
	r.mu.Unlock()

	before := r.scrapeIfTraced(ctx, s)
	r.timedWall = r.timed(ctx, 1, func(ctx context.Context, _, i int) {
		if j := one(ctx, i); j != nil {
			r.finishJob(j)
		}
	})
	r.storeDeltas(before, r.scrapeIfTraced(ctx, s), len(r.jobs))
	r.settle(ctx, s)
	if r.cfg.traced {
		r.layer["go.heap_mb"] = r.scrape(ctx, s)["reconcile_go_heap_bytes"] / (1 << 20)
		return r.probe(ctx, pool[:1])
	}
	return nil
}

// restart: set-up builds a template data dir of finished PA jobs and
// SIGKILLs its server. Each cycle links a copy of the template (linkTree),
// boots serve on the copy (set-up time is boot replay), sends every
// restored job one batch of unlinked identity seeds over two connections
// and waits for done.
func restart(ctx context.Context, r *run) error {
	rng := reconcile.NewRand(r.cfg.seed)
	var pool []*instance
	for i := 0; i < restartJobs; i++ {
		inst, err := paInstance(ctx, rng.Split(), restartN, seedBatch)
		if err != nil {
			return err
		}
		pool = append(pool, inst)
	}
	r.connect(2)
	r.pollEvery = 4 * time.Millisecond
	template := filepath.Join(r.dir, "template")
	ids, err := r.buildTemplate(ctx, template, pool)
	if err != nil {
		return err
	}

	r.resetSamples()
	t0 := time.Now()
	for c := 0; c == 0 || time.Since(t0).Seconds() < r.cfg.seconds; c++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("cycle-%d", c))
		if err := linkTree(template, dir); err != nil {
			return err
		}
		s, err := r.boot(ctx, dir)
		if err != nil {
			return err
		}
		before := r.scrapeIfTraced(ctx, s)
		cpu0 := cpuSeconds()
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		var bootMu sync.Mutex
		var boot []span
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(ids) && ctx.Err() == nil; k = int(next.Add(1)) - 1 {
					url := s.base + "/v1/jobs/" + ids[k]
					inst := pool[k]
					j := &jobRec{key: fmt.Sprintf("restart/%d", k), start: time.Now()}
					if _, ok := r.send(ctx, j, "seeds", http.MethodPost, url+"/seeds", inst.steps[0].body, nil, http.StatusAccepted); !ok {
						continue
					}
					if !r.awaitDone(ctx, j, url, inst.final()) {
						continue
					}
					if r.cfg.traced {
						b := r.fetchTrace(ctx, j, url)
						r.noteWork(j)
						bootMu.Lock()
						boot = append(boot, b...)
						bootMu.Unlock()
					}
					r.score(j.key, inst.final(), inst.n)
					r.finishJob(j)
				}
			}()
		}
		wg.Wait()
		r.timedWall += time.Since(start).Seconds()
		r.cpu += cpuSeconds() - cpu0
		if r.cfg.traced {
			after := r.scrape(ctx, s)
			r.noteMetrics(fmt.Sprintf("cycle/%d", c), before, after)
			r.storeDeltas(before, after, len(ids))
			r.noteBoot(boot)
			r.layer["go.heap_mb"] = after["reconcile_go_heap_bytes"] / (1 << 20)
		}
		r.settle(ctx, s)
		r.peakRSS(s, false)
		if err := r.procs.stop(s); err != nil {
			return fmt.Errorf("stopping serve: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if r.cfg.traced {
		return r.probe(ctx, pool[:1])
	}
	return nil
}

// buildTemplate runs every pool instance to done on a server over dir,
// checks the links, and SIGKILLs the server, leaving a data dir whose boot
// replays every job. Returns the job ids in pool order.
func (r *run) buildTemplate(ctx context.Context, dir string, pool []*instance) ([]string, error) {
	s, err := r.procs.startServer(ctx, r.cfg.serveBin, dir, dir+".log")
	if err != nil {
		return nil, err
	}
	defer r.procs.crash(s)
	ids := make([]string, len(pool))
	// Submit in pool order so the ids (job-1, job-2, ...) are stable.
	for k, inst := range pool {
		var created struct {
			ID string `json:"id"`
		}
		if _, ok := r.send(ctx, nil, "submit", http.MethodPost, s.base+"/v1/jobs", inst.body, &created, http.StatusAccepted); !ok {
			return nil, fmt.Errorf("template: submit failed")
		}
		ids[k] = created.ID
		// Keep at most two jobs in flight, like the two connections.
		if k >= 1 {
			if !r.awaitDone(ctx, &jobRec{}, s.base+"/v1/jobs/"+ids[k-1], pool[k-1].want) {
				return nil, fmt.Errorf("template: job %s did not finish correctly", ids[k-1])
			}
		}
	}
	if !r.awaitDone(ctx, &jobRec{}, s.base+"/v1/jobs/"+ids[len(ids)-1], pool[len(pool)-1].want) {
		return nil, fmt.Errorf("template: job %s did not finish correctly", ids[len(ids)-1])
	}
	return ids, nil
}

// linkTree recreates the directories under src in dst and hard-links
// every regular file. The store writes only through temporary files it
// renames into place (the repository lints for it), so a server on dst
// never changes a file it shares with src, and set-up writes no file data
// whose writeback would contend with the timed phase's fsyncs.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return os.Link(path, target)
	})
}
