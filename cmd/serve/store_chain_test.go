package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// chainVictim builds a deterministic checkpoint chain: a job of `iterations`
// sweeps killed after `sweeps` of them, checkpointed at every sweep boundary
// exactly like the server's progress hook (one full every
// testStoreConfig.fullEvery records). It returns the uninterrupted
// reference result for bit-identity checks.
func chainVictim(t *testing.T, st *store, id string, iterations, sweeps int) (want *reconcile.Result) {
	t.Helper()
	req := testInstance(t, 400, 0.15)
	g1, g2, seeds := wireInstance(t, req)

	// Pin a fixed engine: the default hybrid's regime handoff forces one
	// extra full record mid-chain (ErrFullRequired), which would perturb the
	// exact full/delta shapes these tests assert on.
	ref, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds), reconcile.WithIterations(iterations),
		reconcile.WithEngine(reconcile.EngineFrontier))
	if err != nil {
		t.Fatal(err)
	}
	if want, err = ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	js := st.tenant(tenant.Default).jobStore(id)
	if err := js.saveGraphs(g1, g2); err != nil {
		t.Fatal(err)
	}
	var phases []phaseJSON
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var victim *reconcile.Reconciler
	victim, err = reconcile.New(g1, g2,
		reconcile.WithSeeds(seeds),
		reconcile.WithIterations(iterations),
		reconcile.WithEngine(reconcile.EngineFrontier),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
			phases = append(phases, phaseJSON{
				Iteration: e.Iteration, Bucket: e.Bucket, Buckets: e.Buckets,
				MinDegree: e.MinDegree, Matched: e.Matched, Total: e.TotalLinks,
			})
			if e.Bucket == e.Buckets {
				meta := jobMeta{
					ID: id, Num: 1, Status: statusRunning,
					Seeds: victim.Result().Seeds, Phases: phases,
				}
				if err := js.checkpoint(victim, meta); err != nil {
					t.Errorf("checkpoint at sweep %d: %v", e.Iteration, err)
				}
				if e.Iteration == sweeps {
					cancel()
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim err = %v, want cancellation", err)
	}
	return want
}

// chainFiles lists a job's chain record basenames in sequence order.
func chainFiles(t *testing.T, js *jobStore) []string {
	t.Helper()
	var out []string
	for _, rec := range js.listChain() {
		out = append(out, filepath.Base(rec.path))
	}
	return out
}

// resumeAndVerify boots a server over the store, requires the job to be
// interrupted, resumes it and requires the final matching to be
// bit-identical to the uninterrupted reference.
func resumeAndVerify(t *testing.T, st *store, id string, want *reconcile.Result) {
	t.Helper()
	s, skipped := newServer(st)
	for _, err := range skipped {
		t.Fatalf("boot skipped a job: %v", err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	v := jobPairs(t, ts.URL, id)
	if v.Status != statusInterrupted {
		t.Fatalf("restored status = %q (%s), want interrupted", v.Status, v.Error)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs/"+id+"/resume", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST resume: status %d", resp.StatusCode)
	}
	if done := waitForJob(t, ts.URL, id); done.Status != statusDone {
		t.Fatalf("resumed job: status %q (%s)", done.Status, done.Error)
	}
	got := jobPairs(t, ts.URL, id)
	wantPairs := make([][2]int, len(want.Pairs))
	for i, p := range want.Pairs {
		wantPairs[i] = [2]int{int(p.Left), int(p.Right)}
	}
	if fmt.Sprint(got.Pairs) != fmt.Sprint(wantPairs) {
		t.Fatal("resumed matching is not bit-identical to the uninterrupted run")
	}
}

// TestStoreRecoveryCorruptTrailingDelta pins the fallback contract: a
// corrupt trailing delta record must make boot fall back to the last
// consistent chain prefix and surface the job as interrupted — never panic,
// never skip the job — and resume must still finish bit-identically.
func TestStoreRecoveryCorruptTrailingDelta(t *testing.T) {
	st := newTestStore(t)
	want := chainVictim(t, st, "job-1", 6, 5)
	js := st.tenant(tenant.Default).jobStore("job-1")
	// fullEvery=3: expect full, delta, delta, full, delta.
	files := chainFiles(t, js)
	if len(files) != 5 || !strings.HasSuffix(files[4], ".delta") {
		t.Fatalf("unexpected chain %v", files)
	}
	records := js.listChain()
	trailing := records[len(records)-1].path
	raw, err := os.ReadFile(trailing)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(trailing, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreRecoveryTruncatedTrailingDelta is the torn-write variant: the
// trailing record lost its tail.
func TestStoreRecoveryTruncatedTrailingDelta(t *testing.T) {
	st := newTestStore(t)
	want := chainVictim(t, st, "job-1", 6, 5)
	js := st.tenant(tenant.Default).jobStore("job-1")
	records := js.listChain()
	trailing := records[len(records)-1].path
	raw, err := os.ReadFile(trailing)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trailing, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreRecoveryMissingDelta removes a mid-chain delta: the records
// after the gap must be abandoned and the job surfaced as interrupted.
func TestStoreRecoveryMissingDelta(t *testing.T) {
	st := newTestStore(t)
	want := chainVictim(t, st, "job-1", 6, 3)
	js := st.tenant(tenant.Default).jobStore("job-1")
	// Chain is full(1), delta(2), delta(3); removing delta(2) leaves
	// delta(3) unreachable — recovery must stop at the full.
	records := js.listChain()
	if len(records) != 3 {
		t.Fatalf("unexpected chain %v", chainFiles(t, js))
	}
	if err := os.Remove(records[1].path); err != nil {
		t.Fatal(err)
	}
	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreRecoveryCorruptFull corrupts the newest full snapshot: recovery
// must fall back to the previous full's chain (replaying its deltas), not
// panic and not lose the job.
func TestStoreRecoveryCorruptFull(t *testing.T) {
	st := newTestStore(t)
	want := chainVictim(t, st, "job-1", 6, 5)
	js := st.tenant(tenant.Default).jobStore("job-1")
	records := js.listChain()
	var newestFull chainRecord
	for _, rec := range records {
		if rec.full {
			newestFull = rec
		}
	}
	if newestFull.path == "" || newestFull.seq != 4 {
		t.Fatalf("unexpected chain %v", chainFiles(t, js))
	}
	raw, err := os.ReadFile(newestFull.path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(newestFull.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreRecoveryFallbackSurvivesRestarts pins that boot-time compaction
// never deletes the records a fallback recovery is living off: after a
// corrupt newest full sends recovery back to an older chain, the server can
// be restarted any number of times without resuming and the job must keep
// loading — retention waits for the next durable full.
func TestStoreRecoveryFallbackSurvivesRestarts(t *testing.T) {
	st := newTestStore(t)
	want := chainVictim(t, st, "job-1", 6, 5)
	js := st.tenant(tenant.Default).jobStore("job-1")
	records := js.listChain()
	for _, rec := range records {
		if rec.full && rec.seq > 1 {
			raw, err := os.ReadFile(rec.path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01
			if err := os.WriteFile(rec.path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for boot := 0; boot < 3; boot++ {
		s, skipped := newServer(st)
		if len(skipped) != 0 {
			t.Fatalf("boot %d skipped the job: %v", boot, skipped)
		}
		j := s.jobs["job-1"]
		if j == nil || j.status != statusInterrupted {
			t.Fatalf("boot %d: job missing or not interrupted", boot)
		}
	}
	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreRecoveryCorruptionMarksDoneJobInterrupted pins that the dropped
// detection does not depend on the meta: a job whose meta says "done" but
// whose trailing record is unreadable restores behind its acknowledged
// state and must come back interrupted (resumable), not silently "done"
// with links missing.
func TestStoreRecoveryCorruptionMarksDoneJobInterrupted(t *testing.T) {
	st := newTestStore(t)
	want := chainVictim(t, st, "job-1", 6, 5)
	js := st.tenant(tenant.Default).jobStore("job-1")
	meta := jobMeta{ID: "job-1", Num: 1, Status: statusDone, Seeds: want.Seeds}
	if err := atomicWriteJSON(js.path(".meta.json"), meta); err != nil {
		t.Fatal(err)
	}
	records := js.listChain()
	trailing := records[len(records)-1].path
	raw, err := os.ReadFile(trailing)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x10 // inside the CRC trailer
	if err := os.WriteFile(trailing, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resumeAndVerify(t, st, "job-1", want)
}

// atomicWriteJSON is a small test helper over atomicWrite.
func atomicWriteJSON(path string, v jobMeta) error {
	return atomicWrite(path, func(w *os.File) error {
		_, err := fmt.Fprintf(w, `{"id":%q,"num":%d,"status":%q,"seeds":%d,"untilStable":false,"maxSweeps":0,"phases":[]}`,
			v.ID, v.Num, v.Status, v.Seeds)
		return err
	})
}

// TestStoreRetention pins keep-last-K compaction: after enough sweeps the
// chain holds at most keep full snapshots and no records older than the
// oldest kept full, and the retained suffix still restores.
func TestStoreRetention(t *testing.T) {
	st := newTestStore(t)
	want := chainVictim(t, st, "job-1", 14, 13) // 13 records: fulls at 1,4,7,10,13
	js := st.tenant(tenant.Default).jobStore("job-1")
	records := js.listChain()
	fulls := 0
	for _, rec := range records {
		if rec.full {
			fulls++
		}
		if rec.seq < 10 {
			t.Fatalf("retention left record %d (chain %v)", rec.seq, chainFiles(t, js))
		}
	}
	if fulls != testStoreConfig.keep {
		t.Fatalf("retention kept %d fulls, want %d (chain %v)", fulls, testStoreConfig.keep, chainFiles(t, js))
	}
	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreShardPlacement pins the sharded layout: jobs land in their hash
// shard, every shard directory exists, and a restart re-lists jobs from all
// shards.
func TestStoreShardPlacement(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir, storeConfig{shards: 4, fullEvery: 2, keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Shard sets live under each tenant's root; jobs off the un-namespaced
	// API land in default/.
	st.tenant("default")
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, "default", fmt.Sprintf("shard-%02d", i))); err != nil {
			t.Fatalf("missing shard dir: %v", err)
		}
	}
	ts := httptest.NewServer(newTestServer(t, st).handler())
	req := testInstance(t, 150, 0.25)
	var ids []string
	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		ids = append(ids, decode[map[string]string](t, resp)["id"])
	}
	dirsUsed := map[string]bool{}
	for _, id := range ids {
		waitForJob(t, ts.URL, id)
		js := st.tenant(tenant.Default).jobStore(id)
		if !strings.HasPrefix(filepath.Base(js.dir), "shard-") {
			t.Fatalf("job %s placed outside a shard: %s", id, js.dir)
		}
		if _, err := os.Stat(js.path(".meta.json")); err != nil {
			t.Fatalf("job %s not in its hash shard: %v", id, err)
		}
		dirsUsed[js.dir] = true
	}
	if len(dirsUsed) < 2 {
		t.Fatalf("6 jobs all hashed to one shard (%v); placement broken", dirsUsed)
	}
	ts.Close()

	// A restart — even with a different -shards setting — re-lists them all.
	st2, err := newStore(dir, storeConfig{shards: 2, fullEvery: 2, keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newTestServer(t, st2).handler())
	defer ts2.Close()
	for _, id := range ids {
		if v := jobPairs(t, ts2.URL, id); v.Status != statusDone {
			t.Fatalf("job %s after reshard restart: status %q", id, v.Status)
		}
	}
}

// TestStoreReleasesBaseWhenIdle pins that a terminal job does not pin its
// delta base (a full deep copy of the session state) in memory for the
// server's lifetime — the base exists to diff the next checkpoint against,
// and an idle job's next checkpoint re-anchors with a full anyway.
func TestStoreReleasesBaseWhenIdle(t *testing.T) {
	st := newTestStore(t)
	s := newTestServer(t, st)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	req := testInstance(t, 150, 0.25)
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	id := decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("job status %q", v.Status)
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	j.pending.Wait() // the run goroutine's finish() writes the terminal checkpoint
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.js.haveBase {
		t.Fatal("terminal job still pins its delta base")
	}
	// An explicit checkpoint of the idle job re-anchors with a full and
	// releases again.
	if err := j.persistLocked(); err != nil {
		t.Fatal(err)
	}
	if j.js.haveBase {
		t.Fatal("idle checkpoint left the delta base pinned")
	}
	records := j.js.listChain()
	if !records[len(records)-1].full {
		t.Fatal("idle checkpoint did not re-anchor with a full")
	}
}

// TestStoreLegacyFlatLayout pins the refusal of a pre-shard flat -data-dir
// (graphs, one .state snapshot and a meta directly in the root): newStore
// fails with an error naming a root job file, and removes nothing.
func TestStoreLegacyFlatLayout(t *testing.T) {
	dir := t.TempDir()
	req := testInstance(t, 300, 0.2)
	g1, g2, seeds := wireInstance(t, req)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The flat layout: <root>/<id>.{g1,g2,state,meta.json}.
	writeFile := func(name string, write func(*os.File) error) {
		t.Helper()
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("job-1.g1", func(f *os.File) error { return reconcile.WriteGraphBinary(f, g1) })
	writeFile("job-1.g2", func(f *os.File) error { return reconcile.WriteGraphBinary(f, g2) })
	writeFile("job-1.state", func(f *os.File) error { return rec.SnapshotState(f) })
	meta := jobMeta{ID: "job-1", Num: 1, Status: statusDone, Seeds: res.Seeds, MaxSweeps: 50}
	if err := atomicWriteJSON(filepath.Join(dir, "job-1.meta.json"), meta); err != nil {
		t.Fatal(err)
	}

	_, err = newStore(dir, testStoreConfig)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "job-1.")) {
		t.Fatalf("newStore on a flat layout: err = %v, want a refusal naming a root job file", err)
	}
	for _, name := range []string{"job-1.g1", "job-1.g2", "job-1.state", "job-1.meta.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("refused store touched %s: %v", name, err)
		}
	}
}

// TestStoreByteAccountingInvariant pins the durable-byte invariant the
// quota system depends on: the incrementally maintained per-tenant counter
// equals a fresh walk of the tenant root after every path that moves bytes
// — graph writes, delta and full checkpoints, retention compaction, failed
// writes, and purge. Aggressive chain settings
// (fullEvery 2, keep 1) make compaction fire constantly.
func TestStoreByteAccountingInvariant(t *testing.T) {
	st, err := newStore(t.TempDir(), storeConfig{shards: 2, fullEvery: 2, keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := st.tenant(tenant.Default)
	check := func(stage string) {
		t.Helper()
		tracked, walked := ts.verifyBytes()
		if tracked != walked {
			t.Fatalf("%s: tracked %d bytes, walk found %d (drift %+d)", stage, tracked, walked, tracked-walked)
		}
	}
	check("empty store")

	// Two jobs checkpointing at every sweep boundary: fulls, deltas, and
	// keep-1 retention all churn the counter.
	chainVictim(t, st, "job-1", 6, 3)
	check("after job-1 chain")
	chainVictim(t, st, "job-2", 4, 2)
	check("after job-2 chain")

	// A write that fails before its rename moves nothing: the old file (or
	// its absence) is still what is on disk.
	js := st.tenant(tenant.Default).jobStore("job-1")
	boom := errors.New("boom")
	if err := js.writeTracked(js.path(".probe"), func(*os.File) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want boom", err)
	}
	check("after failed write")

	// Purge credits everything back.
	st.tenant(tenant.Default).jobStore("job-2").purge()
	check("after purges")
}
