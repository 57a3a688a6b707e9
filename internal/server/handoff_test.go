package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"rtmdm/internal/cluster"
)

// exportNodeHTTP fetches one node's sealed export and its decoded form.
func exportNodeHTTP(t *testing.T, url, node string) ([]byte, *cluster.Snapshot) {
	t.Helper()
	resp, err := http.Get(url + "/v1/export?node=" + node)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export %s: status %d: %s", node, resp.StatusCode, body)
	}
	snap, err := cluster.DecodeSnapshot(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("export %s does not verify: %v", node, err)
	}
	return body, snap
}

func importHTTP(t *testing.T, url string, body []byte) (*http.Response, importResponse) {
	t.Helper()
	resp, raw := post(t, url+"/v1/import", string(body))
	var out importResponse
	json.Unmarshal(raw, &out)
	return resp, out
}

func releaseBody(node, hash string) []byte {
	return []byte(fmt.Sprintf(`{"release":{"node":%q,"hash":%q}}`, node, hash))
}

// TestHandoffExportImportRoundTrip moves one node between two live
// servers and checks the moved node behaves identically on the new
// owner, including idempotent re-import and conflict on divergence.
func TestHandoffExportImportRoundTrip(t *testing.T) {
	_, tsA := newTestServer(t, Config{ShardLabel: "shard-0"})
	fillNodes(t, tsA.URL) // commits t00..t02 on alpha and beta

	body, snap := exportNodeHTTP(t, tsA.URL, "alpha")
	if len(snap.Nodes) != 1 || snap.Nodes[0].Node != "alpha" {
		t.Fatalf("export holds %d nodes (%+v), want just alpha", len(snap.Nodes), snap.Nodes)
	}
	hash := snap.Nodes[0].Hash

	srvB, tsB := newTestServer(t, Config{})
	resp, out := importHTTP(t, tsB.URL, body)
	if resp.StatusCode != http.StatusOK || !out.Installed || out.Hash != hash {
		t.Fatalf("import: status %d, %+v (want installed with hash %.12s…)", resp.StatusCode, out, hash)
	}

	// Idempotent re-import: same bytes, no-op success.
	resp, out = importHTTP(t, tsB.URL, body)
	if resp.StatusCode != http.StatusOK || out.Installed || out.Hash != hash {
		t.Fatalf("re-import: status %d, %+v (want no-op success)", resp.StatusCode, out)
	}

	// The moved node admits on B exactly as it would have on A: a
	// duplicate task name is refused, a fresh one is admitted against the
	// transferred committed set.
	r, raw := post(t, tsB.URL+"/v1/admit", snapAddBody(50, "alpha", "t00", 60))
	var dup AdmitResponse
	json.Unmarshal(raw, &dup)
	if r.StatusCode != http.StatusOK || dup.Admitted {
		t.Fatalf("duplicate admit after import: status %d, %+v", r.StatusCode, dup)
	}
	r, raw = post(t, tsB.URL+"/v1/admit", snapAddBody(51, "alpha", "t99", 80))
	var add AdmitResponse
	json.Unmarshal(raw, &add)
	if r.StatusCode != http.StatusOK || !add.Admitted || len(add.Committed) != 4 {
		t.Fatalf("fresh admit after import: status %d, %+v", r.StatusCode, add)
	}

	// B's state has diverged: the original import must now conflict.
	srvB.adm.drains.Wait()
	resp, _ = importHTTP(t, tsB.URL, body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("import over diverged state: status %d, want 409", resp.StatusCode)
	}
}

// TestHandoffReleaseHashGuard: release deletes only when the caller's
// hash matches the live state; stale hashes conflict, absent nodes are
// idempotent no-ops.
func TestHandoffReleaseHashGuard(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	fillNodes(t, ts.URL)
	_, snap := exportNodeHTTP(t, ts.URL, "alpha")
	hash := snap.Nodes[0].Hash

	// Mutate alpha after the export: the old hash must no longer release.
	if r, body := post(t, ts.URL+"/v1/admit", snapAddBody(60, "alpha", "late", 90)); r.StatusCode != http.StatusOK {
		t.Fatalf("mutating admit: status %d: %s", r.StatusCode, body)
	}
	srv.adm.drains.Wait()
	resp, _ := importHTTP(t, ts.URL, releaseBody("alpha", hash))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale release: status %d, want 409", resp.StatusCode)
	}

	// Re-export for the current hash; that release succeeds.
	_, snap = exportNodeHTTP(t, ts.URL, "alpha")
	resp, out := importHTTP(t, ts.URL, releaseBody("alpha", snap.Nodes[0].Hash))
	if resp.StatusCode != http.StatusOK || !out.Released {
		t.Fatalf("release: status %d, %+v", resp.StatusCode, out)
	}

	// Gone: export 404s, release is an idempotent no-op.
	er, err := http.Get(ts.URL + "/v1/export?node=alpha")
	if err != nil {
		t.Fatal(err)
	}
	er.Body.Close()
	if er.StatusCode != http.StatusNotFound {
		t.Fatalf("export after release: status %d, want 404", er.StatusCode)
	}
	resp, out = importHTTP(t, ts.URL, releaseBody("alpha", snap.Nodes[0].Hash))
	if resp.StatusCode != http.StatusOK || out.Released {
		t.Fatalf("repeat release: status %d, %+v (want no-op success)", resp.StatusCode, out)
	}

	// beta was never touched.
	_, snapB := exportNodeHTTP(t, ts.URL, "beta")
	if len(snapB.Nodes[0].Tasks) != 3 {
		t.Fatalf("beta lost state: %+v", snapB.Nodes[0])
	}
}

// TestHandoffReleasedNodeRebindsCold: after a release, the name is free
// — a new admission stream binds it from scratch (this is what lets a
// later reshard move it back).
func TestHandoffReleasedNodeRebindsCold(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	fillNodes(t, ts.URL)
	srv.adm.drains.Wait()
	_, snap := exportNodeHTTP(t, ts.URL, "alpha")
	if resp, _ := importHTTP(t, ts.URL, releaseBody("alpha", snap.Nodes[0].Hash)); resp.StatusCode != http.StatusOK {
		t.Fatalf("release failed: %d", resp.StatusCode)
	}
	r, raw := post(t, ts.URL+"/v1/admit", snapAddBody(70, "alpha", "reborn", 45))
	var out AdmitResponse
	json.Unmarshal(raw, &out)
	if r.StatusCode != http.StatusOK || !out.Admitted || len(out.Committed) != 1 {
		t.Fatalf("rebind after release: status %d, %+v", r.StatusCode, out)
	}
}

// TestHandoffImportRejectsBadBodies: garbage, multi-node snapshots, and
// tampered snapshots are refused before any state changes.
func TestHandoffImportRejectsBadBodies(t *testing.T) {
	_, tsA := newTestServer(t, Config{})
	fillNodes(t, tsA.URL)
	_, tsB := newTestServer(t, Config{})

	if resp, _ := importHTTP(t, tsB.URL, []byte(`{"not":"a snapshot"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage import: status %d, want 400", resp.StatusCode)
	}

	// Full two-node snapshot: valid as a snapshot, but not a per-node
	// handoff document.
	full, err := http.Get(tsA.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	fullBody, _ := io.ReadAll(full.Body)
	full.Body.Close()
	if resp, _ := importHTTP(t, tsB.URL, fullBody); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("multi-node import: status %d, want 400", resp.StatusCode)
	}

	body, _ := exportNodeHTTP(t, tsA.URL, "alpha")
	tampered := bytes.Replace(body, []byte(`"period_ms": 60`), []byte(`"period_ms": 59`), 1)
	if bytes.Equal(tampered, body) {
		t.Fatal("tamper target not found")
	}
	if resp, _ := importHTTP(t, tsB.URL, tampered); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered import: status %d, want 400", resp.StatusCode)
	}
	// Nothing installed: alpha still binds fresh on B.
	if r, raw := post(t, tsB.URL+"/v1/admit", snapAddBody(1, "alpha", "fresh", 50)); r.StatusCode != http.StatusOK {
		t.Fatalf("admit after rejected imports: status %d: %s", r.StatusCode, raw)
	}
}

// TestReadyzDistinctFromHealthz: shutdown flips readiness off while
// liveness stays up, and SetReady is an explicit override.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz at boot: %d", got)
	}
	srv.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after SetReady(false): %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz must stay live while not ready: %d", got)
	}
	srv.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after SetReady(true): %d", got)
	}
}
