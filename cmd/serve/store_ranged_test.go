package main

import (
	"bytes"
	"errors"
	"fmt"
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
// checkpoint is a commit file (the manifest and range 0) plus one shard
// file for each of ranges 1..3 (fulls on the fullEvery grid, deltas
// between), no range-0 shard file exists, and the meta records the
// geometry.
func TestStoreRangedChainShape(t *testing.T) {
	st := newRangedStore(t)
	chainVictim(t, st, "job-1", 6, 5)
	js := st.tenant(tenant.Default).jobStore("job-1")

	groups := groupChain(js.listChain())
	if len(groups) != 5 {
		t.Fatalf("chain has %d checkpoints, want 5: %v", len(groups), chainFiles(t, js))
	}
	for i, g := range groups {
		// fullEvery=3: full, delta, delta, full, delta.
		wantFull := i%3 == 0
		files, other := g.delta, g.full
		if wantFull {
			files, other = g.full, g.delta
		}
		if len(files) != 4 || len(other) != 0 {
			t.Fatalf("checkpoint #%d: %d files of the expected kind (full=%v) and %d of the other, want 4 and 0: %v",
				g.seq, len(files), wantFull, len(other), chainFiles(t, js))
		}
		if strings.Contains(files[0], ".r0000.") {
			t.Fatalf("checkpoint #%d: range 0 lives in a shard file %s", g.seq, files[0])
		}
		var man *reconcile.RangeManifest
		var err error
		if wantFull {
			man, _, err = readCheckpoint(4, files, reconcile.ReadSessionState)
		} else {
			man, _, err = readCheckpoint(4, files, reconcile.ReadStateDelta)
		}
		if err != nil {
			t.Fatalf("checkpoint #%d: %v", g.seq, err)
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
// checkpoints: with the newest checkpoint torn — its commit file, which
// holds the manifest, missing (crash before the commit rename) or one shard
// corrupt or missing — boot falls back to the
// previous consistent checkpoint, surfaces the job as interrupted with
// dropped records, and resume still finishes bit-identically.
func TestStoreRangedTornTailFallback(t *testing.T) {
	for _, tear := range []string{"manifest-missing", "shard-corrupt", "shard-missing"} {
		t.Run(tear, func(t *testing.T) {
			st := newRangedStore(t)
			want := chainVictim(t, st, "job-1", 6, 5)
			js := st.tenant(tenant.Default).jobStore("job-1")
			js.ranges = 4 // what boot reads from the meta
			groups := groupChain(js.listChain())
			last := groups[len(groups)-1]
			switch tear {
			case "manifest-missing":
				if err := os.Remove(last.delta[0]); err != nil {
					t.Fatal(err)
				}
			case "shard-corrupt":
				path := last.delta[2]
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0x41
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			case "shard-missing":
				if err := os.Remove(last.delta[1]); err != nil {
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
// fulls, only keep anchors remain and every surviving full still has its
// commit file and full shard set.
func TestStoreRangedRetention(t *testing.T) {
	st := newRangedStore(t)
	chainVictim(t, st, "job-1", 9, 8) // fulls at 1, 4, 7; keep=2 drops seqs < 4
	js := st.tenant(tenant.Default).jobStore("job-1")
	groups := groupChain(js.listChain())
	anchors := 0
	for _, g := range groups {
		if len(g.full) > 0 {
			anchors++
			if len(g.full) != 4 {
				t.Fatalf("retained full #%d has %d of its 4 files", g.seq, len(g.full))
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

// TestStoreCommitFileRefusals pins how recovery reads a commit file — the
// manifest, then range 0 through the same buffer, then end of file — for
// one range and for four: a damaged commit file is refused with an error,
// never misread and never a panic.
func TestStoreCommitFileRefusals(t *testing.T) {
	for _, cfg := range []storeConfig{testStoreConfig, rangedStoreConfig} {
		st, err := newStore(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		chainVictim(t, st, "job-1", 3, 1) // one checkpoint: full #1
		js := st.tenant(tenant.Default).jobStore("job-1")
		js.ranges = reconcile.StateRangeCount(400, 400, cfg.rangeNodes)
		path := js.ckptPath(1, 0, "full")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := js.recoverState(); err != nil {
			t.Fatalf("ranges=%d: intact commit file: %v", js.ranges, err)
		}
		range0 := bytes.Index(raw[1:], []byte("RSNP")) + 1 // where range 0's record starts
		for _, tc := range []struct {
			name    string
			file    []byte
			ranges  int
			wantErr string
		}{
			{"trailing bytes", append(append([]byte(nil), raw...), 0), js.ranges, "trailing bytes"},
			{"truncated range 0", raw[:range0+(len(raw)-range0)/2], js.ranges, "range 0"},
			{"manifest only", raw[:range0], js.ranges, "range 0"},
			{"range count differs from meta", raw, js.ranges + 1, "manifest of"},
		} {
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			handle := *js
			handle.ranges = tc.ranges
			state, _, err := handle.recoverState()
			if err == nil || state != nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ranges=%d, %s: state %v, err %v; want a refusal mentioning %q", js.ranges, tc.name, state != nil, err, tc.wantErr)
			}
		}
	}
}

// TestStoreRefusesOtherChainLayouts pins that chains written in the older
// layouts — a bare state record as the whole checkpoint, or a separate
// manifest file beside range shards — are refused: boot succeeds, serves
// the other jobs, and skips each such job with an error naming what it
// found.
func TestStoreRefusesOtherChainLayouts(t *testing.T) {
	st := newTestStore(t)
	chainVictim(t, st, "job-1", 3, 1)
	g1, g2, seeds := wireInstance(t, testInstance(t, 400, 0.15))
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	write := func(js *jobStore, name string, encode func(*os.File) error) {
		t.Helper()
		if err := js.writeTracked(js.path(name), encode); err != nil {
			t.Fatal(err)
		}
	}
	newJob := func(id string, ranges int) *jobStore {
		t.Helper()
		js := st.tenant(tenant.Default).jobStore(id)
		if err := js.saveGraphs(g1, g2); err != nil {
			t.Fatal(err)
		}
		if err := js.writeMeta(jobMeta{ID: id, Num: 2, Status: statusInterrupted, Ranges: ranges}); err != nil {
			t.Fatal(err)
		}
		return js
	}

	// A whole-state checkpoint: what Checkpointer.WriteFull writes.
	mono := newJob("job-2", 0)
	var ckpt reconcile.Checkpointer
	write(mono, ".ckpt-00000001.full", func(f *os.File) error { return ckpt.WriteFull(f, rec) })

	// A manifest file of its own, with every range, 0 included, in a shard.
	split := newJob("job-3", 4)
	ck, err := reconcile.NewRangedCheckpointer(4).Prepare(rec, true)
	if err != nil {
		t.Fatal(err)
	}
	write(split, ".ckpt-00000001.manifest", func(f *os.File) error { return ck.EncodeManifest(f) })
	for j := 0; j < 4; j++ {
		write(split, fmt.Sprintf(".ckpt-00000001.r%04d.full", j), func(f *os.File) error { return ck.EncodePart(j, f) })
	}

	s, skipped := newServer(st)
	if s.jobs["job-1"] == nil {
		t.Fatal("boot did not serve the intact job")
	}
	want := map[string]string{"job-2": "stream kind", "job-3": "separate manifest file"}
	if len(skipped) != len(want) {
		t.Fatalf("boot skipped %d jobs, want %d: %v", len(skipped), len(want), skipped)
	}
	for _, err := range skipped {
		id := strings.Fields(strings.TrimPrefix(err.Error(), "store: tenant default job "))[0]
		if id = strings.TrimSuffix(id, ":"); !strings.Contains(err.Error(), want[id]) || want[id] == "" {
			t.Fatalf("skip error %q does not name %q", err, want[id])
		}
		if s.jobs[id] != nil {
			t.Fatalf("refused job %s is served", id)
		}
	}
}
