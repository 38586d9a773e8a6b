package hydradhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hydrac"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/rover"
	"hydrac/internal/store"
)

func baseBody(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, rover.TaskSet()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func admitBody(t *testing.T, k int) []byte {
	t.Helper()
	d := hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
		Name: fmt.Sprintf("mon%02d", k), WCET: 1, MaxPeriod: 900000, Core: -1, Priority: 1000 + k,
	}}}
	var buf bytes.Buffer
	if err := hydrac.EncodeDelta(&buf, &d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func createSession(t *testing.T, srvURL string) string {
	t.Helper()
	resp, body := post(t, srvURL+"/v1/session", baseBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	var cr struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.SessionID == "" {
		t.Fatalf("no session id in %s", body)
	}
	return cr.SessionID
}

// In memory mode an evicted session answers 410 Gone with a body that
// names the cause — distinct from the bare 404 of an id that never
// existed — and the eviction is logged.
func TestMemoryModeEvictionSurfacesGone(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	// The memory store's live LRU holds exactly MaxSessions sessions,
	// so the second create always evicts the first.
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, MaxSessions: 1, CacheSize: 8,
		Logf: func(format string, args ...any) { fmt.Fprintf(&logs, format+"\n", args...) },
	}))
	defer srv.Close()

	first := createSession(t, srv.URL)
	second := createSession(t, srv.URL)

	resp, body := get(t, srv.URL+"/v1/session/"+first)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted session: got %d %s, want 410", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "evicted") || !strings.Contains(string(body), "-data-dir") {
		t.Fatalf("410 body does not explain the eviction: %s", body)
	}
	if !strings.Contains(logs.String(), "evicted") {
		t.Fatalf("eviction not logged: %q", logs.String())
	}
	// The survivor still serves; a never-created id is a plain 404.
	if resp, body := get(t, srv.URL+"/v1/session/"+second); resp.StatusCode != http.StatusOK {
		t.Fatalf("live session: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, srv.URL+"/v1/session/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: got %d, want 404", resp.StatusCode)
	}
}

// -sessions N is exact in memory mode: of 2N sessions created, the N
// most recent stay live and the N before them answer 410.
func TestMemoryModeSessionCapIsExact(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	const live = 64
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a, MaxSessions: live, CacheSize: 8}))
	defer srv.Close()

	ids := make([]string, 2*live)
	for i := range ids {
		ids[i] = createSession(t, srv.URL)
	}
	counts := map[int]int{}
	for i, id := range ids {
		resp, body := get(t, srv.URL+"/v1/session/"+id)
		counts[resp.StatusCode]++
		want := http.StatusOK
		if i < live {
			want = http.StatusGone
		}
		if resp.StatusCode != want {
			t.Errorf("session %d of %d: got %d %s, want %d", i, len(ids), resp.StatusCode, body, want)
		}
	}
	if counts[http.StatusOK] != live || counts[http.StatusGone] != live {
		t.Fatalf("status counts %v, want %d live (200) and %d evicted (410)", counts, live, live)
	}
}

// With a durable store behind the handler, eviction is invisible:
// the evicted session re-hydrates from disk on the next request.
func TestDurableModeEvictionIsTransparent(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), a, store.Options{MaxLive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, MaxSessions: 1, CacheSize: 8, Store: st,
	}))
	defer srv.Close()

	first := createSession(t, srv.URL)
	resp, wantSet := get(t, srv.URL+"/v1/session/"+first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET before eviction: %d", resp.StatusCode)
	}
	createSession(t, srv.URL) // evicts "first" from the live window

	resp, gotSet := get(t, srv.URL+"/v1/session/"+first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after eviction: %d %s", resp.StatusCode, gotSet)
	}
	if !bytes.Equal(gotSet, wantSet) {
		t.Fatal("re-hydrated session set differs from pre-eviction set")
	}
	// And it still accepts commits.
	resp, body := post(t, srv.URL+"/v1/session/"+first+"/admit", admitBody(t, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit after re-hydration: %d %s", resp.StatusCode, body)
	}
}

// The service-level restart property: a handler torn down and rebuilt
// over the same data dir serves every session byte-identically,
// including deltas committed right before the "crash".
func TestDurableModeSurvivesRestart(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, MaxSessions: 16, CacheSize: 8, Store: st,
	}))

	id := createSession(t, srv.URL)
	for k := 0; k < 3; k++ {
		resp, body := post(t, srv.URL+"/v1/session/"+id+"/admit", admitBody(t, k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d: %d %s", k, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Hydra-Admitted"); got != "true" {
			t.Fatalf("admit %d: X-Hydra-Admitted = %q", k, got)
		}
	}
	resp, wantSet := get(t, srv.URL+"/v1/session/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart GET: %d", resp.StatusCode)
	}
	// Simulate the crash: no graceful store Close — the WAL is fsynced
	// per commit, so the disk already holds everything acknowledged.
	srv.Close()

	st2, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	srv2 := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, MaxSessions: 16, CacheSize: 8, Store: st2,
	}))
	defer srv2.Close()

	resp, gotSet := get(t, srv2.URL+"/v1/session/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart GET: %d %s", resp.StatusCode, gotSet)
	}
	if !bytes.Equal(gotSet, wantSet) {
		t.Fatalf("post-restart set differs:\ngot:  %s\nwant: %s", gotSet, wantSet)
	}
	// healthz reports the durable tier.
	resp, hz := get(t, srv2.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hz), `"durable":true`) {
		t.Fatalf("healthz does not report durable sessions: %d %s", resp.StatusCode, hz)
	}
}

// Sessions created over HTTP land on disk under their minted id, and
// the store accepts those ids (hex) while the handler rejects ids the
// store would refuse as 404, never as a panic or directory escape.
func TestDurableModePathSafety(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, MaxSessions: 4, CacheSize: 0, Store: st,
	}))
	defer srv.Close()

	id := createSession(t, srv.URL)
	if _, release, err := st.Acquire(context.Background(), id); err != nil {
		t.Fatalf("minted id %q not acquirable: %v", id, err)
	} else {
		release()
	}
	for _, evil := range []string{"..%2F..%2Fetc", "a%2Fb", "%2e%2e"} {
		resp, _ := get(t, srv.URL+"/v1/session/"+evil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("id %q: got %d, want 404", evil, resp.StatusCode)
		}
	}
}
