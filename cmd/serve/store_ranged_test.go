package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// rangedStoreConfig shards the chain state of the 800-node test instance
// (testInstance n=400 builds two ~400-node graphs) into 4 node ranges, with
// graphs mapped — the full tentpole configuration.
var rangedStoreConfig = storeConfig{shards: 3, fullEvery: 3, keep: 2, mmap: true, rangeNodes: 200}

func newRangedStore(t *testing.T) *store {
	t.Helper()
	st, err := newStore(t.TempDir(), rangedStoreConfig)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreRangedChainShape pins the on-disk form of a ranged chain: every
// checkpoint is a manifest plus one shard file per range (fulls on the
// fullEvery grid, deltas between), no monolithic records exist, and the
// meta records the geometry.
func TestStoreRangedChainShape(t *testing.T) {
	st := newRangedStore(t)
	chainVictim(t, st, "job-1", 6, 5)
	js := st.tenant(tenant.Default).jobStore("job-1")

	groups := groupChain(js.listChain())
	if len(groups) != 5 {
		t.Fatalf("chain has %d checkpoints, want 5: %v", len(groups), chainFiles(t, js))
	}
	for i, g := range groups {
		if g.mono != nil {
			t.Fatalf("checkpoint #%d has a monolithic record in a ranged chain", g.seq)
		}
		if g.manifest == "" {
			t.Fatalf("checkpoint #%d has no manifest", g.seq)
		}
		// fullEvery=3: full, delta, delta, full, delta.
		wantFull := i%3 == 0
		parts := g.partDelta
		if wantFull {
			parts = g.partFull
		}
		if len(parts) != 4 {
			t.Fatalf("checkpoint #%d: %d shards of the expected kind (full=%v), want 4: %v",
				g.seq, len(parts), wantFull, chainFiles(t, js))
		}
		man, err := readManifestFile(g.manifest)
		if err != nil {
			t.Fatalf("checkpoint #%d manifest: %v", g.seq, err)
		}
		if man.Ranges() != 4 {
			t.Fatalf("checkpoint #%d manifest says %d ranges, want 4", g.seq, man.Ranges())
		}
	}

	meta, err := os.ReadFile(js.path(".meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(meta, []byte(`"ranges":4`)) {
		t.Fatalf("meta does not record the chain geometry: %s", meta)
	}
}

// TestStoreRangedRecovery is the serve-level face of the tentpole: a job
// checkpointed as ranged shards over mapped graphs, killed mid-run, boots
// as interrupted and resumes bit-identically to the uninterrupted run.
func TestStoreRangedRecovery(t *testing.T) {
	st := newRangedStore(t)
	want := chainVictim(t, st, "job-1", 6, 5)
	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreRangedTornTailFallback pins the commit-point contract of ranged
// checkpoints: with the newest checkpoint torn — its manifest missing (crash
// before the commit rename) or one shard corrupt — boot falls back to the
// previous consistent checkpoint, surfaces the job as interrupted with
// dropped records, and resume still finishes bit-identically.
func TestStoreRangedTornTailFallback(t *testing.T) {
	for _, tear := range []string{"manifest-missing", "shard-corrupt", "shard-missing"} {
		t.Run(tear, func(t *testing.T) {
			st := newRangedStore(t)
			want := chainVictim(t, st, "job-1", 6, 5)
			js := st.tenant(tenant.Default).jobStore("job-1")
			groups := groupChain(js.listChain())
			last := groups[len(groups)-1]
			switch tear {
			case "manifest-missing":
				if err := os.Remove(last.manifest); err != nil {
					t.Fatal(err)
				}
			case "shard-corrupt":
				path := last.partDelta[2]
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0x41
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			case "shard-missing":
				if err := os.Remove(last.partDelta[1]); err != nil {
					t.Fatal(err)
				}
			}
			state, dropped, err := js.recoverState()
			if err != nil {
				t.Fatalf("recovery with a torn tail: %v", err)
			}
			if dropped != 1 {
				t.Fatalf("recovery dropped %d checkpoints, want 1", dropped)
			}
			if state == nil {
				t.Fatal("recovery returned no state")
			}
			resumeAndVerify(t, st, "job-1", want)
		})
	}
}

// TestStoreRangedRetention pins keep-last-K on ranged chains: after enough
// fulls, only keep anchors remain and every surviving checkpoint still has
// its manifest and full shard set.
func TestStoreRangedRetention(t *testing.T) {
	st := newRangedStore(t)
	chainVictim(t, st, "job-1", 9, 8) // fulls at 1, 4, 7; keep=2 drops seqs < 4
	js := st.tenant(tenant.Default).jobStore("job-1")
	groups := groupChain(js.listChain())
	anchors := 0
	for _, g := range groups {
		if len(g.partFull) > 0 {
			anchors++
			if g.manifest == "" {
				t.Fatalf("retained full #%d lost its manifest", g.seq)
			}
		}
	}
	if anchors != rangedStoreConfig.keep {
		t.Fatalf("retention kept %d ranged fulls, want %d (chain %v)", anchors, rangedStoreConfig.keep, chainFiles(t, js))
	}
	if groups[0].seq != 4 {
		t.Fatalf("oldest surviving checkpoint is #%d, want 4 (chain %v)", groups[0].seq, chainFiles(t, js))
	}
}

// TestStoreMappedRestartLifecycle pins the -mmap lifetime across a restart:
// graphs written in the mappable format come back as live mappings, seed
// ingestion runs over the mapped arrays (pinned for the run's duration),
// and DELETE waits out the run, purges the files and closes the mapping —
// after which access fails cleanly.
func TestStoreMappedRestartLifecycle(t *testing.T) {
	st := newRangedStore(t)
	ts := httptest.NewServer(newTestServer(t, st).handler())
	resp := postJSON(t, ts.URL+"/v1/jobs", testInstance(t, 400, 0.15))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	first := waitForJob(t, ts.URL, "job-1")
	if first.Status != statusDone {
		t.Fatalf("job: status %q (%s)", first.Status, first.Error)
	}
	firstPairs := jobPairs(t, ts.URL, "job-1").Pairs
	ts.Close()

	// "Restart": a fresh server over the same store loads the graphs
	// through the mapping path.
	s2 := newTestServer(t, st)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	j := s2.jobs["job-1"]
	if j == nil {
		t.Fatal("job not restored")
	}
	if j.mg1 == nil || j.mg2 == nil {
		t.Fatal("restored job holds no mapping handles under -mmap")
	}
	if j.mg1.Mapped() != reconcile.MmapSupported {
		t.Fatalf("Mapped() = %v, want %v", j.mg1.Mapped(), reconcile.MmapSupported)
	}
	restored := jobPairs(t, ts2.URL, "job-1")
	if restored.Status != statusDone {
		t.Fatalf("restored job: status %q (%s)", restored.Status, restored.Error)
	}
	if len(restored.Pairs) != len(firstPairs) {
		t.Fatalf("restored job has %d pairs, want %d", len(restored.Pairs), len(firstPairs))
	}

	// A run over the mapped graphs: ingest one fresh seed and sweep.
	var seed [2]int
	used := map[int]bool{}
	usedR := map[int]bool{}
	for _, p := range restored.Pairs {
		used[p[0]] = true
		usedR[p[1]] = true
	}
	for v := 0; v < j.n1; v++ {
		if !used[v] && !usedR[v] {
			seed = [2]int{v, v}
			break
		}
	}
	resp = postJSON(t, ts2.URL+"/v1/jobs/job-1/seeds", map[string]any{"seeds": [][2]int{seed}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST seeds: status %d", resp.StatusCode)
	}
	if v := waitForJob(t, ts2.URL, "job-1"); v.Status != statusDone {
		t.Fatalf("post-seed run: status %q (%s)", v.Status, v.Error)
	}

	// DELETE tears the whole job down: durable files, then the mappings.
	req, err := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/jobs/job-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if _, err := j.mg1.Acquire(); !errors.Is(err, reconcile.ErrGraphClosed) {
		t.Fatalf("Acquire after DELETE: err = %v, want ErrGraphClosed", err)
	}
	if _, err := os.Stat(j.js.path(".g1")); !os.IsNotExist(err) {
		t.Fatalf("graph file survives DELETE: err = %v", err)
	}
	// Shutdown-path close is idempotent over the already-closed job.
	s2.closeMappings()
}

// TestStoreMmapFormatInterop pins the migration contract: a store written
// without -mmap reads back with it (legacy graphs decode onto the heap
// behind the mapping API), and a store written with -mmap reads back
// without it (ReadGraphBinary sniffs the mappable container).
func TestStoreMmapFormatInterop(t *testing.T) {
	for _, dir := range []struct {
		name           string
		write, read    bool // cfg.mmap at write/read time
		wantMappedRead bool
	}{
		{"legacy-then-mmap", false, true, false},
		{"mmap-then-legacy", true, false, false},
	} {
		t.Run(dir.name, func(t *testing.T) {
			root := t.TempDir()
			cfg := testStoreConfig
			cfg.mmap = dir.write
			st, err := newStore(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newTestServer(t, st).handler())
			resp := postJSON(t, ts.URL+"/v1/jobs", testInstance(t, 300, 0.15))
			resp.Body.Close()
			if v := waitForJob(t, ts.URL, "job-1"); v.Status != statusDone {
				t.Fatalf("job: status %q (%s)", v.Status, v.Error)
			}
			want := jobPairs(t, ts.URL, "job-1").Pairs
			ts.Close()

			cfg.mmap = dir.read
			st2, err := newStore(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s2 := newTestServer(t, st2)
			ts2 := httptest.NewServer(s2.handler())
			defer ts2.Close()
			got := jobPairs(t, ts2.URL, "job-1")
			if got.Status != statusDone || len(got.Pairs) != len(want) {
				t.Fatalf("flipped-format restore: status %q, %d pairs, want done/%d", got.Status, len(got.Pairs), len(want))
			}
			if j := s2.jobs["job-1"]; dir.read && (j.mg1 == nil || j.mg1.Mapped() != dir.wantMappedRead && reconcile.MmapSupported) {
				t.Fatalf("legacy graphs under -mmap: mg=%v", j.mg1)
			}
		})
	}
}

// TestRangedChainFilesAreChainRecords pins listChain's parse of the ranged
// names so purge and retention see every file (an unlisted file would leak
// bytes forever).
func TestRangedChainFilesAreChainRecords(t *testing.T) {
	st := newRangedStore(t)
	chainVictim(t, st, "job-1", 4, 3)
	js := st.tenant(tenant.Default).jobStore("job-1")
	listed := map[string]bool{}
	for _, rec := range js.listChain() {
		listed[rec.path] = true
	}
	entries, err := os.ReadDir(js.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "job-1.ckpt-") {
			continue
		}
		if !listed[js.path(strings.TrimPrefix(name, "job-1"))] {
			t.Fatalf("chain file %s not listed (purge would leak it)", name)
		}
	}

	js.purge()
	entries, err = os.ReadDir(js.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "job-1.") {
			t.Fatalf("purge left %s behind", e.Name())
		}
	}
	if tracked, walked := js.ts.verifyBytes(); tracked != walked {
		t.Fatalf("byte accounting drifted after ranged purge: tracked %d, walked %d", tracked, walked)
	}
}
