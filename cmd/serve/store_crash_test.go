package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// crashStep is what one checkpoint() call did to a job's files.
type crashStep struct {
	boundary []byte            // SnapshotState at the call: the state it persists
	before   map[string][]byte // the job's files just before the call
	after    map[string][]byte // and just after it
}

// jobFiles reads every file of the job in its shard directory.
func jobFiles(t *testing.T, js *jobStore) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(js.dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), js.id+".") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(js.dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// crashChain runs a job through the store the way the server does — an
// initial checkpoint at submission, then one per sweep — recording each
// checkpoint's file changes. One checkpoint where a full is due is forced
// to a delta and then treated as failed (its commit file landed, but the
// store saw an error), so the retry at the same sequence number is a full
// and that number holds both commit kinds. It returns the uninterrupted
// run's result.
func crashChain(t *testing.T, st *store, id string) (*reconcile.Result, []crashStep) {
	t.Helper()
	g1, g2, seeds := wireInstance(t, testInstance(t, 400, 0.15))
	opts := []reconcile.Option{reconcile.WithSeeds(seeds), reconcile.WithIterations(9), reconcile.WithEngine(reconcile.EngineFrontier)}
	ref, err := reconcile.New(g1, g2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	js := st.tenant(tenant.Default).jobStore(id)
	if err := js.saveGraphs(g1, g2); err != nil {
		t.Fatal(err)
	}
	var steps []crashStep
	forced := false
	var victim *reconcile.Reconciler
	checkpoint := func() {
		var snap bytes.Buffer
		if err := victim.SnapshotState(&snap); err != nil {
			t.Fatal(err)
		}
		step := crashStep{boundary: snap.Bytes(), before: jobFiles(t, js)}
		fail := !forced && js.haveBase && js.sinceFull+1 >= js.ts.store.cfg.fullEvery
		if fail {
			js.sinceFull = 0 // a delta where a full is due
		}
		meta := jobMeta{ID: id, Num: 1, Status: statusRunning, Seeds: victim.Result().Seeds}
		if err := js.checkpoint(victim, meta); err != nil {
			t.Fatal(err)
		}
		if fail {
			if js.sinceFull != 1 {
				t.Fatal("forced checkpoint did not write a delta")
			}
			js.seq-- // the caller saw the write fail
			js.haveBase = false
			forced = true
		}
		step.after = jobFiles(t, js)
		steps = append(steps, step)
	}
	victim, err = reconcile.New(g1, g2, append(opts, reconcile.WithProgress(func(e reconcile.PhaseEvent) {
		if e.Bucket == e.Buckets {
			checkpoint()
		}
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint()
	if _, err := victim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !forced {
		t.Fatal("no checkpoint was forced to fail")
	}
	return want, steps
}

// crashImage is one on-disk state a crash can leave the job in; committed
// says the step's commit file is in it, intact.
type crashImage struct {
	name      string
	files     map[string][]byte
	committed bool
}

var chainRecordKey = regexp.MustCompile(`^(.*\.ckpt-\d+)(?:\.r\d+)?\.(full|delta)$`)

// crashImages enumerates what a crash during step can leave behind. The
// step writes shard files (ranges 1..R-1), then its commit file, then
// removes the files it supersedes (a same-number delta after a full, and
// retired checkpoints), then writes the meta. So: any subset of the shard
// files; the commit file only with every shard present; any subset of the
// removed checkpoints still present once the commit landed; the new meta
// only after all of that; and a torn copy of the last checkpoint file
// written.
func crashImages(step crashStep) []crashImage {
	var commit string
	var shards []string
	for name, raw := range step.after {
		if prev, ok := step.before[name]; (ok && bytes.Equal(prev, raw)) || strings.HasSuffix(name, ".meta.json") {
			continue
		}
		if !chainRecordKey.MatchString(name) {
			continue
		}
		if strings.Contains(name, ".r") {
			shards = append(shards, name)
		} else {
			commit = name
		}
	}
	sort.Strings(shards)
	removed := map[string][]string{}
	for name := range step.before {
		if _, ok := step.after[name]; !ok {
			m := chainRecordKey.FindStringSubmatch(name)
			key := m[1] + "." + m[2]
			removed[key] = append(removed[key], name)
		}
	}
	var groups []string
	for key := range removed {
		groups = append(groups, key)
	}
	sort.Strings(groups)

	with := func(names ...string) map[string][]byte {
		files := map[string][]byte{}
		for name, raw := range step.before {
			files[name] = raw
		}
		for _, name := range names {
			files[name] = step.after[name]
		}
		return files
	}
	torn := func(files map[string][]byte, name string) {
		files[name] = files[name][:len(files[name])/2]
	}

	var images []crashImage
	for mask := 0; mask < 1<<len(shards); mask++ {
		var subset []string
		for i, name := range shards {
			if mask&(1<<i) != 0 {
				subset = append(subset, name)
			}
		}
		images = append(images, crashImage{fmt.Sprintf("shards %v", subset), with(subset...), false})
		if len(subset) > 0 {
			files := with(subset...)
			torn(files, subset[len(subset)-1])
			images = append(images, crashImage{fmt.Sprintf("shards %v, last torn", subset), files, false})
		}
	}
	all := append(append([]string(nil), shards...), commit)
	files := with(all...)
	torn(files, commit)
	images = append(images, crashImage{"commit torn", files, false})
	for mask := 0; mask < 1<<len(groups); mask++ {
		files := with(all...)
		var kept []string
		for i, key := range groups {
			if mask&(1<<i) != 0 {
				kept = append(kept, key)
				continue
			}
			for _, name := range removed[key] {
				delete(files, name)
			}
		}
		images = append(images, crashImage{fmt.Sprintf("committed, still present %v", kept), files, true})
	}
	return append(images, crashImage{"committed, meta written", step.after, true})
}

// TestStoreCheckpointCrashPoints enumerates the crash points of
// checkpoint() for one range and for four. For every crash image of every
// checkpoint after the first (before the submission's checkpoint a job is
// not yet accepted), booting a server over the image must not skip the
// job, must recover exactly the state of this checkpoint when its commit
// file landed intact and of the previous one otherwise, must keep the byte
// accounting equal to a walk, and resuming must finish bit-identically to
// the uninterrupted run.
func TestStoreCheckpointCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  storeConfig
	}{{"ranges=1", testStoreConfig}, {"ranges=4", rangedStoreConfig}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := newStore(t.TempDir(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, steps := crashChain(t, st, "job-1")
			shard := filepath.Base(st.tenant(tenant.Default).jobStore("job-1").dir)
			images := 0
			for k := 1; k < len(steps); k++ {
				for _, img := range crashImages(steps[k]) {
					images++
					root := filepath.Join(t.TempDir(), "image")
					dir := filepath.Join(root, tenant.Default, shard)
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					for name, raw := range img.files {
						if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					ist, err := newStore(root, tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					s, skipped := newServer(ist)
					if len(skipped) != 0 {
						t.Fatalf("checkpoint %d, %s: boot skipped the job: %v", k, img.name, skipped)
					}
					j := s.jobs["job-1"]
					if j == nil {
						t.Fatalf("checkpoint %d, %s: job not restored", k, img.name)
					}
					var got bytes.Buffer
					if err := j.rec.SnapshotState(&got); err != nil {
						t.Fatal(err)
					}
					from := k - 1
					if img.committed {
						from = k
					}
					if !bytes.Equal(got.Bytes(), steps[from].boundary) {
						t.Fatalf("checkpoint %d, %s: recovered a state other than checkpoint %d's", k, img.name, from)
					}
					if tracked, walked := ist.tenant(tenant.Default).verifyBytes(); tracked != walked {
						t.Fatalf("checkpoint %d, %s: byte accounting %d, walk %d", k, img.name, tracked, walked)
					}
					g1, g2 := j.rec.Graphs()
					rec, err := reconcile.RestoreState(g1, g2, bytes.NewReader(got.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					res, err := rec.Resume(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, res) {
						t.Fatalf("checkpoint %d, %s: resumed run differs from the uninterrupted one", k, img.name)
					}
					s.closeMappings()
					os.RemoveAll(root)
				}
			}
			t.Logf("%d checkpoints, %d crash images", len(steps), images)
		})
	}
}
