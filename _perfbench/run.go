package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"syscall"
	"time"

	"github.com/sociograph/reconcile"
)

// run is one invocation's state: the HTTP client, the operation tally, and
// every sample the result is computed from.
type run struct {
	cfg    config
	dir    string
	procs  procs
	client *http.Client
	// pollEvery is the job-status poll period. Each wait starts at a
	// random phase within it, so observed completion times are the true
	// ones plus uniform noise rather than a fixed ladder of poll ticks.
	pollEvery time.Duration
	jitter    *rand.Rand // guarded by mu

	mu         sync.Mutex
	attempted  int64
	failed     int64
	failures   []string
	retries429 int64
	reqs       map[string][]float64 // traced: seconds per request, by route
	jobs       []*jobRec            // jobs finished in the timed phase
	boots      []float64            // setup_s samples
	rss        []float64            // peak_rss_mb samples
	disk       []float64            // disk_mb_per_job samples
	timedWall  float64              // seconds the timed jobs ran over
	cpu        float64              // benchmark process CPU seconds in the timed phase
	correct    int64                // links that match the identity truth
	links      int64                // links returned
	nodes      int64                // instance sizes (recall denominator)
	scored     map[string]bool      // instances already in the quality tally
	layer      map[string]float64   // traced: per-layer values set by workloads
	work       map[string]map[string]int64
}

// jobRec is one job lifecycle as the client saw it.
type jobRec struct {
	key        string // instance/shape identity, for work-count comparisons
	url        string // the job's resource
	start, end time.Time
	requests   int
	calls      []call // traced: the lifecycle's requests
	links      int
	traced     bool               // a /trace was folded into the fields below
	budget     map[string]float64 // traced: layer self time, seconds
	kindCount  map[string]int64   // traced: spans per kind in the job's life
	kindSecs   map[string]float64 // traced: span seconds per kind
}

// call is one HTTP request of a lifecycle.
type call struct {
	route      string
	start, end time.Time
}

func (j *jobRec) wall() float64 { return j.end.Sub(j.start).Seconds() }

func newRun(cfg config, dir string) *run {
	return &run{
		cfg:    cfg,
		dir:    dir,
		reqs:   map[string][]float64{},
		layer:  map[string]float64{},
		work:   map[string]map[string]int64{},
		scored: map[string]bool{},
		jitter: rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15)),
	}
}

// connect sets the client's connection budget: at most conns connections
// to the server, kept alive between requests.
func (r *run) connect(conns int) {
	r.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// expect counts one operation and, when ok is false, one failure.
func (r *run) expect(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// do sends one request, retrying 429 refusals (admission back-pressure,
// not failures) until admitted, and decodes a 2xx body into out (a
// *[]byte out receives the raw body). The returned interval spans every
// attempt.
func (r *run) do(ctx context.Context, method, url string, body []byte, out any) (code int, start, end time.Time, err error) {
	start = time.Now()
	for {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return 0, start, time.Now(), err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := r.client.Do(req)
		if err != nil {
			return 0, start, time.Now(), err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		end = time.Now()
		if err != nil {
			return resp.StatusCode, start, end, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			r.mu.Lock()
			r.retries429++
			r.mu.Unlock()
			select {
			case <-ctx.Done():
				return 0, start, time.Now(), ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		if rawOut, ok := out.(*[]byte); ok {
			*rawOut = raw
		} else if out != nil && resp.StatusCode/100 == 2 {
			if err := json.Unmarshal(raw, out); err != nil {
				return resp.StatusCode, start, end, fmt.Errorf("decoding %s %s: %w", method, url, err)
			}
		}
		return resp.StatusCode, start, end, nil
	}
}

// record files one request under its route: on the job (requests per job,
// and in traced runs its interval for the layer budget) and, in traced
// runs, in the per-route latency samples.
func (r *run) record(j *jobRec, route string, start, end time.Time) {
	if j != nil {
		j.requests++
		if r.cfg.traced {
			j.calls = append(j.calls, call{route: route, start: start, end: end})
		}
	}
	if r.cfg.traced {
		r.mu.Lock()
		r.reqs[route] = append(r.reqs[route], end.Sub(start).Seconds())
		r.mu.Unlock()
	}
}

// send is do + record + the status check, for lifecycle requests.
func (r *run) send(ctx context.Context, j *jobRec, route, method, url string, body []byte, out any, want ...int) (int, bool) {
	code, start, end, err := r.do(ctx, method, url, body, out)
	r.record(j, route, start, end)
	ok := err == nil
	if ok {
		ok = false
		for _, w := range want {
			ok = ok || code == w
		}
	}
	return code, r.expect(ok, "%s %s: status %d, err %v", method, url, code, err)
}

// jobView is the slice of GET .../jobs/{id}?pairs=1 the benchmark reads.
type jobView struct {
	Status string   `json:"status"`
	Error  string   `json:"error"`
	Pairs  [][2]int `json:"pairs"`
}

// awaitSettled polls the job (with ?pairs=1, so the poll that observes the
// stop also carries the links) until it leaves "running".
func (r *run) awaitSettled(ctx context.Context, j *jobRec, url string) (jobView, bool) {
	r.mu.Lock()
	wait := time.Duration(r.jitter.Int64N(int64(r.pollEvery)))
	r.mu.Unlock()
	for {
		select {
		case <-ctx.Done():
			return jobView{}, false
		case <-time.After(wait):
		}
		wait = r.pollEvery
		var v jobView
		code, start, end, err := r.do(ctx, http.MethodGet, url+"?pairs=1", nil, &v)
		route := "pairs"
		if err == nil && code == http.StatusOK && v.Status == "running" {
			route = "poll"
		}
		r.record(j, route, start, end)
		if !r.expect(err == nil && code == http.StatusOK, "GET %s: status %d, err %v", url, code, err) {
			return v, false
		}
		if v.Status != "running" {
			return v, true
		}
	}
}

// awaitDone waits for the job to settle as "done" and checks its links.
// The job's end is the moment the client observed the terminal state.
func (r *run) awaitDone(ctx context.Context, j *jobRec, url string, want []reconcile.Pair) bool {
	v, ok := r.awaitSettled(ctx, j, url)
	j.end = time.Now()
	if !ok {
		return false
	}
	if !r.expect(v.Status == "done", "%s: settled as %q (%s), want done", url, v.Status, v.Error) {
		return false
	}
	j.links = len(v.Pairs)
	return r.checkPairs(url, v.Pairs, want)
}

// checkPairs compares a job's links with the library's answer for the same
// operations, in order: the service must be bit-identical to the library.
func (r *run) checkPairs(what string, got [][2]int, want []reconcile.Pair) bool {
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i][0] == int(want[i].Left) && got[i][1] == int(want[i].Right)
	}
	return r.expect(ok, "%s: %d links differ from the library's %d", what, len(got), len(want))
}

// score adds an instance's checked links to the quality tally against the
// identity truth over n nodes per side, once per instance key, so recall
// and precision describe the seed's instances, not the run's job mix.
func (r *run) score(key string, got []reconcile.Pair, n int) {
	var good int64
	for _, p := range got {
		if p.Left == p.Right {
			good++
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.scored[key] {
		return
	}
	r.scored[key] = true
	r.correct += good
	r.links += int64(len(got))
	r.nodes += int64(n)
}

// finishJob files a timed job's record.
func (r *run) finishJob(j *jobRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs = append(r.jobs, j)
}

// timed runs workers closed-loop lifecycles until the phase's seconds are
// up; each worker finishes the lifecycle in flight. Returns the phase's
// wall time, from its start until the last lifecycle ended.
func (r *run) timed(ctx context.Context, workers int, lifecycle func(ctx context.Context, worker, i int)) float64 {
	r.resetSamples()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && time.Since(t0).Seconds() < r.cfg.seconds; i++ {
				lifecycle(ctx, w, i)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	r.mu.Lock()
	r.cpu += cpuSeconds() - cpu0
	r.mu.Unlock()
	return wall
}

// resetSamples drops the per-request samples set-up and warm-up made, so
// the per-layer figures describe the timed phase only.
func (r *run) resetSamples() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs = map[string][]float64{}
	r.retries429 = 0
}

// sampleRSS files the server's peak RSS once per period in the background
// until the returned stop is called; stop waits for the sampler to exit.
func (r *run) sampleRSS(s *server, period time.Duration) (stop func()) {
	if _, err := s.peakRSSMB(true); err != nil {
		r.expect(false, "resetting serve peak RSS: %v", err)
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				r.peakRSS(s, true)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// adminTenant is the slice of GET /v1/admin/tenants the checks read.
type adminTenant struct {
	Name  string `json:"name"`
	Usage struct {
		Jobs            int    `json:"jobs"`
		RunSlots        int    `json:"runSlots"`
		QueuedRuns      int    `json:"queuedRuns"`
		CheckpointBytes int64  `json:"checkpointBytes"`
		WalkedBytes     *int64 `json:"walkedBytes"`
	} `json:"usage"`
}

// settle runs the end-of-run admin invariants once every lifecycle has
// ended: no held slots or queued runs, and the byte counter equal to a
// fresh walk of the store. It records the durable bytes per stored job.
func (r *run) settle(ctx context.Context, s *server) {
	var resp struct {
		Tenants []adminTenant `json:"tenants"`
	}
	// A run releases its scheduler slot just after its terminal state
	// becomes visible, so give the last release a moment to land.
	var code int
	var err error
	for try := 0; try < 200; try++ {
		code, _, _, err = r.do(ctx, http.MethodGet, s.base+"/v1/admin/tenants?verify=bytes", nil, &resp)
		if err != nil || code != http.StatusOK || !busy(resp.Tenants) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !r.expect(err == nil && code == http.StatusOK, "admin verify: status %d, err %v", code, err) {
		return
	}
	var bytes int64
	jobs := 0
	for _, t := range resp.Tenants {
		u := t.Usage
		r.expect(u.RunSlots == 0 && u.QueuedRuns == 0, "tenant %s: %d slots held, %d runs queued after settling", t.Name, u.RunSlots, u.QueuedRuns)
		r.expect(u.WalkedBytes != nil && *u.WalkedBytes == u.CheckpointBytes, "tenant %s: byte drift: tracked %d, walked %v", t.Name, u.CheckpointBytes, u.WalkedBytes)
		bytes += u.CheckpointBytes
		jobs += u.Jobs
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if jobs > 0 {
		r.disk = append(r.disk, float64(bytes)/float64(jobs)/(1<<20))
	}
}

// peakRSS files the server's peak resident set since its start or since
// the last call with reset, and with reset starts a new window.
func (r *run) peakRSS(s *server, reset bool) {
	mb, err := s.peakRSSMB(reset)
	if !r.expect(err == nil, "reading serve peak RSS: %v", err) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rss = append(r.rss, mb)
}

func busy(ts []adminTenant) bool {
	for _, t := range ts {
		if t.Usage.RunSlots != 0 || t.Usage.QueuedRuns != 0 {
			return true
		}
	}
	return false
}

// boot starts a server and files its set-up time.
func (r *run) boot(ctx context.Context, dataDir string, flags ...string) (*server, error) {
	s, err := r.procs.startServer(ctx, r.cfg.serveBin, dataDir, dataDir+".log", flags...)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.boots = append(r.boots, s.setup.Seconds())
	r.mu.Unlock()
	return s, nil
}

// bootFresh measures set-up on fresh data directories: it boots and drains
// a server reps-1 times, then boots the one the workload uses.
func (r *run) bootFresh(ctx context.Context, reps int, flags ...string) (*server, error) {
	for i := 0; i < reps-1; i++ {
		s, err := r.boot(ctx, fmt.Sprintf("%s/boot-%d", r.dir, i), flags...)
		if err != nil {
			return nil, err
		}
		if err := r.procs.stop(s); err != nil {
			return nil, fmt.Errorf("stopping serve: %w", err)
		}
	}
	return r.boot(ctx, r.dir+"/data", flags...)
}
