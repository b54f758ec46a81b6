package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"parbitonic"
	"parbitonic/element"
)

func newTestGateway(t *testing.T) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := NewGateway(Config{
		Engine: parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewGatewayHandler(g, nil))
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts
}

// frame builds a v1 request frame around payload.
func frame(t element.Type, payload []byte) []byte {
	return append(frameHeader(t), payload...)
}

func postSort(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/sort", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestGatewayLegacyU32 pins backward compatibility: an unversioned
// little-endian u32 stream sent to the gateway sorts on the u32 server
// and is answered unversioned, exactly like the pre-frame protocol.
func TestGatewayLegacyU32(t *testing.T) {
	_, ts := newTestGateway(t)
	keys := []uint32{9, 2, 7, 2, 0, 1<<31 + 5}
	raw := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(raw[4*i:], k)
	}
	resp := postSort(t, ts.URL, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, err := readBinaryKeys(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRef(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("legacy round-trip wrong at %d: got %v want %v", i, got, want)
		}
	}
}

// TestGatewayU64Frame round-trips a versioned u64 frame, checking the
// response mirrors the request header.
func TestGatewayU64Frame(t *testing.T) {
	_, ts := newTestGateway(t)
	keys := []uint64{1 << 40, 3, ^uint64(0), 7, 3}
	payload := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(payload[8*i:], k)
	}
	resp := postSort(t, ts.URL, frame(element.TU64, payload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	gotT, out, versioned, err := decodeFrame(raw)
	if err != nil || !versioned || gotT != element.TU64 {
		t.Fatalf("response not a u64 frame: type=%v versioned=%v err=%v", gotT, versioned, err)
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got := binary.LittleEndian.Uint64(out[8*i:]); got != want[i] {
			t.Fatalf("u64 round-trip wrong at %d: got %d want %d", i, got, want[i])
		}
	}
}

// TestGatewayKV64Frame round-trips records: keys sorted, each payload
// still riding with its key.
func TestGatewayKV64Frame(t *testing.T) {
	_, ts := newTestGateway(t)
	recs := []element.KV64{{K: 50, V: 500}, {K: 10, V: 100}, {K: 30, V: 300}}
	payload := make([]byte, 16*len(recs))
	for i, r := range recs {
		element.Put(payload[16*i:], r)
	}
	resp := postSort(t, ts.URL, frame(element.TKV64, payload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	gotT, out, versioned, err := decodeFrame(raw)
	if err != nil || !versioned || gotT != element.TKV64 {
		t.Fatalf("response not a kv64 frame: type=%v versioned=%v err=%v", gotT, versioned, err)
	}
	want := []element.KV64{{K: 10, V: 100}, {K: 30, V: 300}, {K: 50, V: 500}}
	for i := range want {
		if got := element.Get[element.KV64](out[16*i:]); got != want[i] {
			t.Fatalf("kv64 round-trip wrong at %d: got %v want %v", i, got, want[i])
		}
	}
}

// TestGatewayFrameErrors drives each malformed-frame class and checks
// the typed 400 body carries the machine-readable code.
func TestGatewayFrameErrors(t *testing.T) {
	_, ts := newTestGateway(t)
	badVersion := frame(element.TU32, nil)
	badVersion[4] = 9
	badType := frame(element.TU32, nil)
	badType[5] = 200
	badReserved := frame(element.TU32, nil)
	badReserved[6] = 1
	cases := []struct {
		name string
		body []byte
		code string
	}{
		{"truncated-header", frameMagic[:], "truncated-header"},
		{"bad-version", badVersion, "bad-version"},
		{"bad-elem-type", badType, "bad-elem-type"},
		{"bad-reserved", badReserved, "bad-reserved"},
		// 5 bytes of u64 payload: not a multiple of the 8-byte element.
		{"width-mismatch", frame(element.TU64, []byte{1, 2, 3, 4, 5}), "width-mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSort(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Code != tc.code {
				t.Fatalf("error code %q, want %q (error: %s)", e.Code, tc.code, e.Error)
			}
		})
	}
}

// TestGatewayStatsAndMetrics checks the aggregated observability
// surface: /stats keys every element type, and a gateway /metrics
// scrape stays valid Prometheus exposition — per-elem series, but only
// ONE HELP/TYPE header block per metric name.
func TestGatewayStatsAndMetrics(t *testing.T) {
	_, ts := newTestGateway(t)
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, 42)
	if resp := postSort(t, ts.URL, frame(element.TU64, payload)); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed sort status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Elems map[string]json.RawMessage `json:"elems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, et := range element.Types() {
		if _, ok := st.Elems[et.String()]; !ok {
			t.Fatalf("/stats missing element section %q: %v", et.String(), st.Elems)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	if want := `parbitonic_serve_requests_total{elem="u64",outcome="ok"} 1`; !strings.Contains(string(text), want) {
		t.Fatalf("/metrics missing %q", want)
	}
	typeLines := 0
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "# TYPE parbitonic_serve_requests_total ") {
			typeLines++
		}
	}
	if typeLines != 1 {
		t.Fatalf("parbitonic_serve_requests_total has %d TYPE headers, want exactly 1", typeLines)
	}
}

// TestSingleServerRejectsForeignFrames: the plain (non-gateway) u32
// handler must answer versioned non-u32 frames with 501, not sort them
// wrong.
func TestSingleServerRejectsForeignFrames(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postSort(t, ts.URL, frame(element.TU64, make([]byte, 8)))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
}
