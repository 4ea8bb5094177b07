package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/sociograph/reconcile/internal/tenant"
)

// FuzzServeDecoders throws raw request bodies at the two routes that decode
// client input into engine state: POST .../jobs (graphs, seeds, options)
// and, when that job is accepted, POST .../jobs/{id}/seeds. The tenant has
// a small node quota, so a huge node count must be refused before anything
// is allocated for it. The contract:
//
//   - never a panic and never a 5xx;
//   - every non-2xx answer is a JSON object with a non-empty "error";
//   - an accepted request names only nodes inside its graphs: a seed
//     outside [0, n) must be refused, not wrapped into range.
//
// The corpus under testdata/fuzz/FuzzServeDecoders runs with the normal
// test suite; explore with
//
//	go test -fuzz=FuzzServeDecoders -fuzztime=20s -run '^FuzzServeDecoders$' ./cmd/serve
func FuzzServeDecoders(f *testing.F) {
	reg := tenant.NewRegistry()
	if _, err := reg.Register(tenant.Config{Name: "fuzz", Quotas: tenant.Quotas{MaxNodes: 4096}}); err != nil {
		f.Fatal(err)
	}
	s, skipped := newServerWith(nil, serverConfig{registry: reg})
	if len(skipped) > 0 {
		f.Fatal(skipped)
	}
	h := s.handler()
	const base = "/v1/tenants/fuzz/jobs"

	f.Fuzz(func(t *testing.T, jobBody, seedsBody []byte) {
		w := fuzzServe(t, h, "POST", base, jobBody)
		if w.Code != http.StatusAccepted {
			return
		}
		var req jobRequest
		if err := json.NewDecoder(bytes.NewReader(jobBody)).Decode(&req); err != nil {
			t.Fatalf("accepted a body the server cannot decode: %v", err)
		}
		checkSeedRange(t, "create", req.Seeds, req.G1.Nodes, req.G2.Nodes)
		var created map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || created["id"] == "" {
			t.Fatalf("202 without a job id: %s", w.Body)
		}
		job := base + "/" + created["id"]
		// Free the quota whatever happens next; DELETE cancels a run still
		// going and waits for it.
		defer fuzzServe(t, h, "DELETE", job, nil)

		fuzzAwaitIdle(t, h, job)
		w = fuzzServe(t, h, "POST", job+"/seeds", seedsBody)
		if w.Code == http.StatusAccepted {
			var sreq struct {
				Seeds [][2]int `json:"seeds"`
			}
			if err := json.NewDecoder(bytes.NewReader(seedsBody)).Decode(&sreq); err != nil {
				t.Fatalf("accepted seeds the server cannot decode: %v", err)
			}
			checkSeedRange(t, "add", sreq.Seeds, req.G1.Nodes, req.G2.Nodes)
		}
	})
}

// fuzzServe runs one request through the handler and enforces the answer
// contract: no 5xx, and every non-2xx body is a JSON error.
func fuzzServe(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if w.Code >= 500 {
		t.Fatalf("%s %s: status %d: %s", method, path, w.Code, w.Body)
	}
	if w.Code >= 300 {
		var e map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s %s: status %d with a non-JSON body %q", method, path, w.Code, w.Body)
		}
		if msg, _ := e["error"].(string); msg == "" {
			t.Fatalf("%s %s: status %d without an error message: %s", method, path, w.Code, w.Body)
		}
	}
	return w
}

// fuzzAwaitIdle polls a job until it stops running; a fuzzed option mix
// can ask for an unbounded number of sweeps, so after a second it cancels.
func fuzzAwaitIdle(t *testing.T, h http.Handler, job string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		var v jobView
		if err := json.Unmarshal(fuzzServe(t, h, "GET", job, nil).Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != statusRunning {
			return
		}
		if time.Now().After(deadline) {
			fuzzServe(t, h, "POST", job+"/cancel", nil)
			deadline = time.Now().Add(time.Minute)
		}
		time.Sleep(time.Millisecond)
	}
}

func checkSeedRange(t *testing.T, route string, seeds [][2]int, n1, n2 int) {
	t.Helper()
	for _, p := range seeds {
		if p[0] < 0 || p[0] >= n1 || p[1] < 0 || p[1] >= n2 {
			t.Fatalf("%s accepted seed %v outside %d x %d nodes", route, p, n1, n2)
		}
	}
}
