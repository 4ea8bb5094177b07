package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// testInstance builds a reconciliation instance in wire form: a PA graph,
// two independent partial copies, and identity seeds.
func testInstance(t *testing.T, n int, seedFrac float64) jobRequest {
	t.Helper()
	r := reconcile.NewRand(71)
	world := reconcile.GeneratePA(r, n, 8)
	g1, g2 := reconcile.IndependentCopies(r, world, 0.8, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(n), seedFrac)

	spec := func(g *reconcile.Graph) graphSpec {
		s := graphSpec{Nodes: g.NumNodes()}
		g.Edges(func(e reconcile.Edge) bool {
			s.Edges = append(s.Edges, [2]int{int(e.U), int(e.V)})
			return true
		})
		return s
	}
	req := jobRequest{G1: spec(g1), G2: spec(g2)}
	for _, p := range seeds {
		req.Seeds = append(req.Seeds, [2]int{int(p.Left), int(p.Right)})
	}
	return req
}

// wireInstance builds a wire request's graphs and seeds as the server
// does, failing the test on a request the server would refuse.
func wireInstance(t *testing.T, req jobRequest) (g1, g2 *reconcile.Graph, seeds []reconcile.Pair) {
	t.Helper()
	for _, g := range []graphSpec{req.G1, req.G2} {
		if err := validateGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	seeds, err := toPairs(req.Seeds, req.G1.Nodes, req.G2.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return buildGraph(req.G1), buildGraph(req.G2), seeds
}

// newTestServer builds a server, failing the test if any persisted job was
// skipped during restore — tests never write jobs they cannot read back.
func newTestServer(t *testing.T, st *store) *server {
	t.Helper()
	s, skipped := newServer(st)
	for _, err := range skipped {
		t.Errorf("restore skipped a job: %v", err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitForJob polls GET /v1/jobs/{id} until the job leaves the running state.
func waitForJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		v := decode[jobView](t, resp)
		if v.Status != statusRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return jobView{}
}

func TestServeJobLifecycle(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	// Submit a job.
	req := testInstance(t, 800, 0.15)
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	created := decode[map[string]string](t, resp)
	id := created["id"]
	if id == "" {
		t.Fatal("no job id in response")
	}

	// It finishes and reports per-bucket phase statistics.
	v := waitForJob(t, ts.URL, id)
	if v.Status != statusDone {
		t.Fatalf("status = %q (%s), want done", v.Status, v.Error)
	}
	if len(v.Phases) == 0 {
		t.Fatal("no phase statistics reported")
	}
	for _, ph := range v.Phases {
		if ph.Iteration < 1 || ph.Bucket < 1 || ph.Bucket > ph.Buckets || ph.MinDegree < 1 {
			t.Fatalf("malformed phase stat %+v", ph)
		}
	}
	if v.Seeds != len(req.Seeds) {
		t.Fatalf("seeds = %d, want %d", v.Seeds, len(req.Seeds))
	}
	if v.New <= 0 || v.Links != v.Seeds+v.New {
		t.Fatalf("links = %d, seeds = %d, new = %d: matcher found nothing", v.Links, v.Seeds, v.New)
	}

	// The HTTP result matches the in-process API on the same instance.
	g1, g2, seeds := wireInstance(t, req)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if v.Links != len(want.Pairs) {
		t.Fatalf("HTTP run found %d links, in-process %d", v.Links, len(want.Pairs))
	}

	// ?pairs=1 returns the link list once stopped.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	withPairs := decode[jobView](t, resp)
	if len(withPairs.Pairs) != v.Links {
		t.Fatalf("pairs = %d, want %d", len(withPairs.Pairs), v.Links)
	}

	// Incremental seeds resume the job and never lose links.
	extra := [][2]int{}
	usedL := make(map[int]bool, len(withPairs.Pairs))
	usedR := make(map[int]bool, len(withPairs.Pairs))
	for _, p := range withPairs.Pairs {
		usedL[p[0]] = true
		usedR[p[1]] = true
	}
	for i := 0; i < req.G1.Nodes && len(extra) < 20; i++ {
		if !usedL[i] && !usedR[i] {
			extra = append(extra, [2]int{i, i})
		}
	}
	if len(extra) == 0 {
		t.Skip("matcher already identified every node; nothing to ingest")
	}
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, id), map[string]any{"seeds": extra})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST seeds: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	after := waitForJob(t, ts.URL, id)
	if after.Status != statusDone {
		t.Fatalf("after seeds: status %q (%s)", after.Status, after.Error)
	}
	if after.Links < v.Links+len(extra) {
		t.Fatalf("links after ingest = %d, want >= %d", after.Links, v.Links+len(extra))
	}

	// The job shows up in the listing.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]jobView](t, resp)
	if len(list["jobs"]) != 1 || list["jobs"][0].ID != id {
		t.Fatalf("listing = %+v", list)
	}
}

func TestServeCancel(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	req := testInstance(t, 2000, 0.1)
	req.UntilStable = true
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	created := decode[map[string]string](t, resp)

	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/cancel", ts.URL, created["id"]), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST cancel: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// The job must reach a terminal state promptly — cancelled if the signal
	// landed mid-run, done if the run won the race.
	v := waitForJob(t, ts.URL, created["id"])
	if v.Status != statusCancelled && v.Status != statusDone {
		t.Fatalf("status after cancel = %q", v.Status)
	}
}

func TestServeValidation(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}

	// Unknown engines, the retired "sequential" among them: a 400 with a
	// JSON error.
	req := testInstance(t, 50, 0.2)
	for _, engine := range []string{"quantum", "sequential"} {
		req.Options.Engine = engine
		resp = postJSON(t, ts.URL+"/v1/jobs", req)
		body := decode[map[string]string](t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "unknown engine") {
			t.Errorf("engine %q: status %d body %v, want 400 unknown engine", engine, resp.StatusCode, body)
		}
	}

	// Out-of-range edge.
	req = testInstance(t, 50, 0.2)
	req.G1.Edges = append(req.G1.Edges, [2]int{0, 99})
	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range edge: status %d", resp.StatusCode)
	}

	// Unknown job.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}

	// Conflicting incremental seed.
	req = testInstance(t, 200, 0.3)
	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	created := decode[map[string]string](t, resp)
	v := waitForJob(t, ts.URL, created["id"])
	if v.Status != statusDone {
		t.Fatalf("setup job: status %q", v.Status)
	}
	bad := [][2]int{{int(req.Seeds[0][0]), int(req.Seeds[1][1])}} // left already linked elsewhere
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, created["id"]), map[string]any{"seeds": bad})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting seed: status %d", resp.StatusCode)
	}

	// Seed batches are all-or-nothing: a valid seed ahead of a conflicting
	// one must not be committed when the batch is rejected.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, created["id"]))
	if err != nil {
		t.Fatal(err)
	}
	before := decode[jobView](t, resp)
	free := -1
	usedL := map[int]bool{}
	usedR := map[int]bool{}
	for _, p := range before.Pairs {
		usedL[p[0]] = true
		usedR[p[1]] = true
	}
	for i := 0; i < req.G1.Nodes; i++ {
		if !usedL[i] && !usedR[i] {
			free = i
			break
		}
	}
	if free < 0 {
		t.Skip("no unmatched node to build the batch from")
	}
	batch := [][2]int{{free, free}, bad[0]}
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, created["id"]), map[string]any{"seeds": batch})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mixed batch: status %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, created["id"]))
	if err != nil {
		t.Fatal(err)
	}
	after := decode[jobView](t, resp)
	if after.Status != statusDone || len(after.Pairs) != len(before.Pairs) || after.Links != before.Links {
		t.Fatalf("rejected batch changed the job: %d -> %d pairs, links %d -> %d, status %q",
			len(before.Pairs), len(after.Pairs), before.Links, after.Links, after.Status)
	}

	// An out-of-range incremental seed is a 400, also without state change.
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, created["id"]),
		map[string]any{"seeds": [][2]int{{free, req.G2.Nodes + 5}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range seed: status %d, want 400", resp.StatusCode)
	}
}

// TestServeSeedIDsOutOfRange: a seed endpoint outside [0, n) is a 400 on
// both seed routes. An ID past the uint32 range once wrapped to a valid
// node, so the probes use 2^32 plus an unlinked node: a wrapped check would
// accept them as that node.
func TestServeSeedIDsOutOfRange(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()
	const wrap = 1 << 32

	req := testInstance(t, 200, 0.3)
	for _, bad := range [][2]int{{wrap + 5, 5}, {5, wrap + 5}, {-1, 5}, {5, req.G2.Nodes}} {
		r := req
		r.Seeds = append(append([][2]int(nil), req.Seeds...), bad)
		resp := postJSON(t, ts.URL+"/v1/jobs", r)
		body := decode[map[string]string](t, resp)
		if resp.StatusCode != http.StatusBadRequest || body["error"] == "" {
			t.Errorf("create with seed %v: status %d body %v, want 400", bad, resp.StatusCode, body)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	id := decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("setup job: status %q", v.Status)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	before := decode[jobView](t, resp)
	used := map[int]bool{}
	for _, p := range before.Pairs {
		used[p[0]], used[p[1]] = true, true
	}
	free := -1
	for v := 0; v < req.G1.Nodes && free < 0; v++ {
		if !used[v] {
			free = v
		}
	}
	if free < 0 {
		t.Fatal("no unlinked node to probe with")
	}
	for _, bad := range [][2]int{{wrap + free, free}, {free, wrap + free}, {free, -1}} {
		resp := postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, id), map[string]any{"seeds": [][2]int{bad}})
		body := decode[map[string]string](t, resp)
		if resp.StatusCode != http.StatusBadRequest || body["error"] == "" {
			t.Errorf("add seed %v: status %d body %v, want 400", bad, resp.StatusCode, body)
		}
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	if after := decode[jobView](t, resp); after.Seeds != before.Seeds || after.Links != before.Links {
		t.Fatalf("refused seeds changed the job: seeds %d -> %d, links %d -> %d", before.Seeds, after.Seeds, before.Links, after.Links)
	}
}

// TestServeEngineSelection submits the same instance under every engine
// string and requires identical link counts — the HTTP surface of the
// engines' bit-identical guarantee.
func TestServeEngineSelection(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	req := testInstance(t, 400, 0.2)
	counts := map[string]int{}
	one := 1
	for _, engine := range []string{"hybrid", "frontier", "parallel", "sequential"} {
		// The sequential reference is the parallel engine on one worker.
		req.Options.Engine, req.Options.Workers = engine, nil
		if engine == "sequential" {
			req.Options.Engine, req.Options.Workers = "parallel", &one
		}
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("engine %q: status %d", engine, resp.StatusCode)
		}
		created := decode[map[string]string](t, resp)
		v := waitForJob(t, ts.URL, created["id"])
		if v.Status != statusDone {
			t.Fatalf("engine %q: status %q (%s)", engine, v.Status, v.Error)
		}
		if v.New <= 0 {
			t.Fatalf("engine %q: matcher found nothing", engine)
		}
		counts[engine] = v.Links
	}
	if counts["frontier"] != counts["sequential"] || counts["parallel"] != counts["sequential"] {
		t.Fatalf("engines disagree over HTTP: %v", counts)
	}
}

// TestRunSlotFreeWhenDone pins the order of a run's teardown: the
// scheduler slot is released before the terminal status is published, so
// the first poll that reads a terminal status finds the tenant holding no
// run slot. Jobs are polled in-process in a tight loop, so the usage read
// lands as close behind the status change as it can.
func TestRunSlotFreeWhenDone(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	def := s.reg.Get(tenant.Default)
	req := testInstance(t, 150, 0.3)
	for i := 0; i < 20; i++ {
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		id := decode[map[string]string](t, resp)["id"]
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		status := j.view(false).Status
		for status == statusRunning {
			status = j.view(false).Status
		}
		if slots := s.adminTenantView(def, false).Usage.RunSlots; slots != 0 {
			t.Fatalf("job %s: status %q observed with %d run slots held", id, status, slots)
		}
		if status != statusDone {
			t.Fatalf("job %s: status %q", id, status)
		}
	}
}
