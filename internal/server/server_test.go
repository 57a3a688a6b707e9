package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtmdm/internal/httpsvc"
	"rtmdm/internal/metrics"
)

const testScenario = `{
	"horizon_ms": 200,
	"tasks": [
		{"name": "kws", "model": "ds-cnn", "period_ms": 50},
		{"name": "ae",  "model": "autoencoder", "period_ms": 100}
	]
}`

// testScenarioShuffled spells the same deployment with reordered tasks
// and explicit defaults; it must hit the same cache entry.
const testScenarioShuffled = `{
	"platform": "stm32h743",
	"policy": "rt-mdm",
	"horizon_ms": 200,
	"tasks": [
		{"name": "ae",  "model": "autoencoder", "period_ms": 100, "deadline_ms": 100, "seed": 1},
		{"name": "kws", "model": "ds-cnn", "period_ms": 50}
	]
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestAnalyzeAllPolicies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/analyze", `{"scenario": `+testScenario+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.ScenarioHash) != 64 {
		t.Fatalf("scenario_hash %q", ar.ScenarioHash)
	}
	if len(ar.Results) != 6 {
		t.Fatalf("%d policy results; want 6 (all canonical policies)", len(ar.Results))
	}
	byPolicy := map[string]PolicyResult{}
	for _, r := range ar.Results {
		byPolicy[r.Policy] = r
	}
	rtmdm, ok := byPolicy["rt-mdm"]
	if !ok || rtmdm.Test == "" {
		t.Fatalf("rt-mdm result missing or untested: %+v", rtmdm)
	}
	if rtmdm.Schedulable && len(rtmdm.WCRTNs) == 0 {
		t.Fatalf("schedulable verdict without WCRT bounds: %+v", rtmdm)
	}
	// serial-segedf has no sound offline test; the result must say so
	// rather than fake a verdict.
	if segedf := byPolicy["serial-segedf"]; segedf.Error == "" {
		t.Fatalf("serial-segedf should report an analysis error: %+v", segedf)
	}
}

func TestAnalyzePolicySubsetAndCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"scenario": ` + testScenario + `, "policies": ["rt-mdm"]}`
	resp1, body1 := post(t, ts.URL+"/v1/analyze", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Rtmdm-Cache"); got != cacheMiss {
		t.Fatalf("first request cache header %q; want miss", got)
	}
	resp2, body2 := post(t, ts.URL+"/v1/analyze", req)
	if got := resp2.Header.Get("X-Rtmdm-Cache"); got != cacheHit {
		t.Fatalf("second request cache header %q; want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit returned different bytes:\n%s\n%s", body1, body2)
	}
}

func TestSimulateSummaryAndCanonicalCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate", `{"scenario": `+testScenario+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	kws, ok := sr.Tasks["kws"]
	if !ok || kws.Released == 0 {
		t.Fatalf("kws summary missing or empty: %+v", sr.Tasks)
	}
	if kws.Completed > 0 && (kws.MaxResponseNs <= 0 || kws.P50ResponseNs <= 0) {
		t.Fatalf("kws latency summary not populated: %+v", kws)
	}
	if sr.CPUUtilization <= 0 || sr.CPUUtilization > 1 {
		t.Fatalf("cpu utilization %v out of range", sr.CPUUtilization)
	}
	if sr.Trace != nil {
		t.Fatal("trace present without include_trace")
	}

	// A canonically equivalent spelling must hit the same entry.
	resp2, body2 := post(t, ts.URL+"/v1/simulate", `{"scenario": `+testScenarioShuffled+`}`)
	if got := resp2.Header.Get("X-Rtmdm-Cache"); got != cacheHit {
		t.Fatalf("equivalent scenario cache header %q; want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("equivalent scenario returned different bytes")
	}
}

func TestSimulateIncludeTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate", `{"scenario": `+testScenario+`, "include_trace": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	var tev struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(sr.Trace, &tev); err != nil {
		t.Fatalf("trace is not Trace Event Format JSON: %v", err)
	}
	if len(tev.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxHorizonMs: 500})
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"bad json", "/v1/analyze", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/analyze", `{"scenario": ` + testScenario + `, "bogus": 1}`, http.StatusBadRequest},
		{"no scenario", "/v1/analyze", `{}`, http.StatusBadRequest},
		{"no tasks", "/v1/simulate", `{"scenario": {"tasks": []}}`, http.StatusBadRequest},
		{"unknown policy", "/v1/analyze", `{"scenario": ` + testScenario + `, "policies": ["nope"]}`, http.StatusBadRequest},
		{"horizon cap", "/v1/simulate", `{"scenario": {"horizon_ms": 1e6, "tasks": [{"name":"a","model":"lenet5","period_ms":10}]}}`, http.StatusBadRequest},
		{"unknown model", "/v1/simulate", `{"scenario": {"horizon_ms": 100, "tasks": [{"name":"a","model":"nope","period_ms":10}]}}`, http.StatusUnprocessableEntity},
		{"admit no id", "/v1/admit", `{"node":"n","task":{"name":"a","model":"lenet5","period_ms":10}}`, http.StatusBadRequest},
		{"admit no node", "/v1/admit", `{"request_id":1,"task":{"name":"a","model":"lenet5","period_ms":10}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d; want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not an error envelope", tc.name, body)
		}
	}
}

func TestAdmitEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"request_id": 1, "node": "mcu0", "policy": "rt-mdm",
		"task": {"name": "kws", "model": "ds-cnn", "period_ms": 100}}`
	resp, body := post(t, ts.URL+"/v1/admit", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AdmitResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Admitted || len(ar.Committed) != 1 {
		t.Fatalf("first admit: %+v", ar)
	}

	// Same task name again: decided (200) but rejected, state unchanged.
	resp, body = post(t, ts.URL+"/v1/admit", `{"request_id": 2, "node": "mcu0",
		"task": {"name": "kws", "model": "ds-cnn", "period_ms": 100}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Admitted || len(ar.Committed) != 1 {
		t.Fatalf("duplicate admit: %+v", ar)
	}
}

func TestBackpressure429(t *testing.T) {
	// One worker, no queue: holding the single admission token makes
	// every compute request shed deterministically.
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	rel, err := srv.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	resp, body := post(t, ts.URL+"/v1/analyze", `{"scenario": `+testScenario+`}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s; want 429", resp.StatusCode, body)
	}
	if sec, err := retryAfterSeconds(resp.Header); err != nil || sec < 1 {
		t.Fatalf("Retry-After %q not a positive integer", resp.Header.Get("Retry-After"))
	}
}

func TestRequestTimeout504(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, body := post(t, ts.URL+"/v1/analyze", `{"scenario": `+testScenario+`}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s; want 504", resp.StatusCode, body)
	}
}

// TestPanicRecovery drives a panicking route through the shared
// middleware: the client gets a 500 JSON error carrying the panic value
// but no stack, the in-flight gauge returns to zero, and the panic is
// counted once.
func TestPanicRecovery(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(Config{Registry: reg})
	httpsvc.Mount(srv.mux, []string{"GET /boom"}, map[string]http.HandlerFunc{
		"GET /boom": func(http.ResponseWriter, *http.Request) { panic("kaboom") },
	}, srv.met.http)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d; want 500", resp.StatusCode)
	}
	var got map[string]string
	if err := json.Unmarshal(body, &got); err != nil || got["error"] != "internal error: kaboom" {
		t.Fatalf("body %q (decode err %v); want {\"error\": \"internal error: kaboom\"}", body, err)
	}
	if strings.Contains(string(body), "goroutine") {
		t.Fatalf("body %q leaks a stack trace", body)
	}
	snap := reg.Snapshot()
	if m, _ := snap.Get("server.requests_inflight"); m.Value != 0 {
		t.Fatalf("server.requests_inflight = %d after the panic; want 0", m.Value)
	}
	if m, _ := snap.Get("server.panics_recovered"); m.Value != 1 {
		t.Fatalf("server.panics_recovered = %d; want 1", m.Value)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	post(t, ts.URL+"/v1/analyze", `{"scenario": `+testScenario+`, "policies": ["rt-mdm"]}`)
	resp, body := post(t, ts.URL+"/v1/analyze", `{"scenario": `+testScenario+`, "policies": ["rt-mdm"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	_ = body
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	snap := reg.Snapshot()
	if s, ok := snap.Get("server.cache_hits"); !ok || s.Value < 1 {
		t.Fatalf("server.cache_hits = %+v; want >= 1", s)
	}
	if s, ok := snap.Get("server.requests_total"); !ok || s.Value < 2 {
		t.Fatalf("server.requests_total = %+v; want >= 2", s)
	}
	for _, name := range []string{"server.cache_hits", "server.requests_total", "server.request_latency_ns"} {
		if !strings.Contains(string(mbody), name) {
			t.Fatalf("/v1/metrics body missing %s:\n%s", name, mbody)
		}
	}
}

func TestShutdownDrains(t *testing.T) {
	srv := New(Config{AdmitWindow: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Kick off an admission whose batch window is still open, then shut
	// down: Shutdown must wait for the decision, not orphan it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, ts.URL+"/v1/admit", `{"request_id": 1, "node": "n",
			"task": {"name": "a", "model": "lenet5", "period_ms": 100}}`)
	}()
	time.Sleep(10 * time.Millisecond) // let the request enqueue
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
}
