package main

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(values, n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, med, q3 := quartiles(tc.in)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestBudgetSumsToWall(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	j := &jobRec{start: at(0), end: at(100), calls: []call{
		{route: "submit", start: at(0), end: at(10)},
		{route: "poll", start: at(40), end: at(41)},
		{route: "pairs", start: at(90), end: at(100)},
	}}
	// Server clock: slot wait starts at 1000ms (= client 10ms), the sweep
	// runs 2ms..62ms of client time with a checkpoint write inside it, and
	// one span lies wholly before the job's life.
	life := []span{
		{Kind: kindCkptWrite, Start: 995e6, End: 998e6}, // inside submit
		{Kind: kindSlotWait, Start: 1000e6, End: 1002e6},
		{Kind: kindSweep, Start: 1002e6, End: 1062e6},
		{Kind: kindCkptWrite, Start: 1050e6, End: 1060e6},
		{Kind: kindBucket, Start: 1002e6, End: 1040e6},
		{Kind: kindSweep, Start: 100e6, End: 200e6},
	}
	b := budget(j, life)
	want := map[string]float64{
		"ckpt_write": 0.013, "slot_wait": 0.002, "engine": 0.050,
		"http": 0.017, "unattributed": 0.018,
	}
	sum := 0.0
	for k, v := range b {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("budget[%s] = %v, want %v", k, v, want[k])
		}
	}
	if math.Abs(sum-j.wall()) > 1e-9 {
		t.Errorf("budget rows sum to %v, want the wall %v", sum, j.wall())
	}
}

// TestWorkCountsRepeat runs each workload twice, traced, with one seed,
// and compares the server-side work counts job by job. Everything the
// program does deterministically must repeat exactly; the churn shape
// races checkpoint and cancel against the run on purpose, and the store's
// byte count includes job metas that embed trace timestamps, so those
// are reported with their spread instead.
func TestWorkCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the service; takes about two minutes")
	}
	tmp := t.TempDir()
	serveBin := filepath.Join(tmp, "serve")
	build := exec.Command("go", "build", "-o", serveBin, "./cmd/serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/serve: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		workload string
		seconds  float64
	}{
		{"small-jobs", 2},
		{"large-job", 5},
		{"restart", 1},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			var runs [2]map[string]map[string]int64
			for i := range runs {
				cfg := config{
					workload: tc.workload, seed: 7, seconds: tc.seconds, traced: true,
					serveBin: serveBin, workDir: filepath.Join(tmp, "work"),
				}
				res, work, err := runOnce(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct %v, %d of %d operations failed", i, res.Correct, res.Failed, res.Attempted)
				}
				runs[i] = work
			}
			compareWork(t, runs[0], runs[1])
		})
	}
}

func compareWork(t *testing.T, a, b map[string]map[string]int64) {
	var keys []string
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	exact, racy := 0, 0
	for _, k := range keys {
		churn := strings.HasSuffix(k, "/churn")
		for name, x := range a[k] {
			y, ok := b[k][name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing from the second run", k, name)
			case churn:
				if x != y {
					racy++
					t.Logf("%s: %s %d vs %d (churn races by design)", k, name, x, y)
				}
			case name == "write_bytes":
				t.Logf("%s: write_bytes %d vs %d (%+d; metas embed trace timestamps)", k, x, y, y-x)
				if d := math.Abs(float64(y - x)); d > 1e-3*float64(x) {
					t.Errorf("%s: write_bytes %d vs %d differ by more than metas can explain", k, x, y)
				}
			case x != y:
				t.Errorf("%s: %s %d vs %d, want an exact repeat", k, name, x, y)
			default:
				exact++
			}
		}
	}
	if exact == 0 {
		t.Fatalf("no deterministic work count was compared (keys in both runs: %v)", keys)
	}
	t.Logf("%d counts repeated exactly over %d keys; %d churn counts differed", exact, len(keys), racy)
}
