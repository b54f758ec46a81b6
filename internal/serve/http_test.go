package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Engine: parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s, nil))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func TestHTTPSortJSON(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(sortRequest{Keys: []uint32{5, 3, 9, 1, 3}})
	resp, err := http.Post(ts.URL+"/sort", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out sortResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 3, 3, 5, 9}
	for i := range want {
		if out.Keys[i] != want[i] {
			t.Fatalf("got %v want %v", out.Keys, want)
		}
	}
}

func TestHTTPSortBinary(t *testing.T) {
	_, ts := newTestServer(t)
	keys := randKeys(rand.New(rand.NewSource(2)), 1000, 1<<28)
	raw := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(raw[4*i:], k)
	}
	resp, err := http.Post(ts.URL+"/sort", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("response content type %q", ct)
	}
	got, err := readBinaryKeys(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRef(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("binary round-trip wrong at %d", i)
		}
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	s, ts := newTestServer(t)

	// 405: wrong method.
	resp, _ := http.Get(ts.URL + "/sort")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sort status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()

	// 400: malformed JSON.
	resp, _ = http.Post(ts.URL+"/sort", "application/json", strings.NewReader("{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// 400: binary body not a multiple of 4.
	resp, _ = http.Post(ts.URL+"/sort", "application/octet-stream", strings.NewReader("abc"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ragged binary status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// 400: bad timeout_ms.
	resp, _ = http.Post(ts.URL+"/sort?timeout_ms=bogus", "application/json", strings.NewReader(`{"keys":[2,1]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout_ms status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// 200: a generous timeout_ms sorts fine.
	resp, _ = http.Post(ts.URL+"/sort?timeout_ms=30000", "application/json", strings.NewReader(`{"keys":[2,1]}`))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("timeout_ms=30000 status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// 503 after Close.
	s.Close()
	resp, _ = http.Post(ts.URL+"/sort", "application/json", strings.NewReader(`{"keys":[2,1]}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close status %d, want 503", resp.StatusCode)
	}
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if !strings.Contains(e.Error, "closed") {
		t.Errorf("post-close error body %q", e.Error)
	}
}

func TestHTTPOverloadIs429(t *testing.T) {
	gate := make(chan struct{})
	g := &gateCharger{gate: gate}
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors: 2,
			Backend:    parbitonic.Native,
			WrapCharger: func(inner spmd.Charger) spmd.Charger {
				g.Charger = inner
				return g
			},
		},
		MaxBatch:   1,
		QueueDepth: 1,
		Parallel:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s, nil))
	defer func() {
		close(gate)
		ts.Close()
		s.Close()
	}()

	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/sort", "application/json", strings.NewReader(`{"keys":[3,1,2,4]}`))
		if err != nil {
			t.Error(err)
		}
		return resp
	}
	// Wedge the worker, the dispatcher and the queue (see
	// TestOverloadTyped for the accounting), then expect 429.
	for i := 0; i < 3; i++ {
		go func() {
			if resp := post(); resp != nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(50 * time.Millisecond)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	resp.Body.Close()
}

func TestHTTPObsEndpoints(t *testing.T) {
	rm := obs.NewMetrics()
	s, err := New(Config{
		Engine: parbitonic.Config{Processors: 2, Backend: parbitonic.Native, Obs: rm},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s, rm))
	defer func() { ts.Close(); s.Close() }()

	resp, _ := http.Post(ts.URL+"/sort", "application/json", strings.NewReader(`{"keys":[9,1,5]}`))
	resp.Body.Close()

	resp, _ = http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, _ = http.Get(ts.URL + "/metrics")
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`parbitonic_serve_requests_total{elem="u32",outcome="ok"} 1`,
		"parbitonic_serve_queue_depth",
		"parbitonic_serve_batches_total",
		"parbitonic_serve_request_seconds_count",
		"parbitonic_runs_total", // engine-run metrics merged in
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, _ = http.Get(ts.URL + "/stats")
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	resp.Body.Close()
	if _, ok := stats["pool"]; !ok {
		t.Error("/stats missing pool section")
	}

	resp, _ = http.Get(ts.URL + "/debug/vars")
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	resp.Body.Close()
	if _, ok := vars["parbitonic"]; !ok {
		t.Error("/debug/vars missing parbitonic key")
	}
}
