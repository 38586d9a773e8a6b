package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func pinnedPlan(t *testing.T, name string) (*workload, *plan) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.plan(w, pinSeed, w.pinSizes())
	if err != nil {
		t.Fatal(err)
	}
	return w, p
}

// TestPinsMatch guards pins.json itself: every workload's plan at the
// pin seed must reproduce its pinned digests.
func TestPinsMatch(t *testing.T) {
	for _, w := range workloads {
		_, p := pinnedPlan(t, w.name)
		if err := checkPin(w, p); err != nil {
			t.Error(err)
		}
	}
}

// TestPinsCatchDrift shows that a changed generated input, a changed
// reference report and a changed admission verdict each fail the gate.
func TestPinsCatchDrift(t *testing.T) {
	cases := []struct {
		workload, want string
		drift          func(p *plan)
	}{
		{"analyze-cold", "inputs drifted", func(p *plan) {
			r := &p.closed[0][0]
			r.body = bytes.Replace(r.body, []byte(`"wcet": `), []byte(`"wcet": 1`), 1)
		}},
		{"analyze-dup", "reports drifted", func(p *plan) {
			r := &p.open[1][0]
			r.want = bytes.Replace(r.want, []byte(`"from_cache": true`), []byte(`"from_cache": false`), 1)
		}},
		{"session-memory", "inputs drifted", func(p *plan) { p.bases[3] = append([]byte(" "), p.bases[3]...) }},
		{"session-durable", "admission sequence drifted", func(p *plan) { p.closed[1][2].admitted = "false" }},
		{"session-durable", "reports drifted", func(p *plan) { p.finalSets[0] = nil }},
	}
	for _, c := range cases {
		w, p := pinnedPlan(t, c.workload)
		c.drift(p)
		if err := checkPin(w, p); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: drifted plan gave %v, want an error containing %q", c.workload, err, c.want)
		}
	}
}

// fakeDaemon answers every planned request with its expected response,
// passed through corrupt.
func fakeDaemon(t *testing.T, p *plan, corrupt func(r *request, body []byte, h http.Header) []byte) *target {
	byBody := map[string]*request{}
	for _, phase := range [][2][]request{p.closed, p.open} {
		for k := range phase {
			for i := range phase[k] {
				byBody[string(phase[k][i].body)] = &phase[k][i]
			}
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b, _ := io.ReadAll(req.Body)
		r, ok := byBody[string(b)]
		if !ok {
			http.Error(w, "unplanned request", http.StatusBadRequest)
			return
		}
		if r.admitted != "" {
			w.Header().Set("X-Hydra-Admitted", r.admitted)
		}
		w.Write(corrupt(r, append([]byte(nil), r.want...), w.Header()))
	}))
	t.Cleanup(srv.Close)
	ids := make([]string, len(p.bases))
	for i := range ids {
		ids[i] = "s" + string(rune('a'+i%26))
	}
	return &target{client: newClient(), base: srv.URL, ids: ids}
}

// TestResponseCheck shows that correct responses pass and that a
// corrupted report, a corrupted cache-hit envelope and a wrong
// admission header (either way) each fail the run.
func TestResponseCheck(t *testing.T) {
	clean := func(_ *request, b []byte, _ http.Header) []byte { return b }
	cases := []struct {
		workload string
		corrupt  func(r *request, b []byte, h http.Header) []byte
	}{
		{"analyze-cold", func(_ *request, b []byte, _ http.Header) []byte {
			return bytes.Replace(b, []byte(`"wcrt": `), []byte(`"wcrt": 9`), 1)
		}},
		{"analyze-dup", func(_ *request, b []byte, _ http.Header) []byte { return b[:len(b)-2] }},
		{"session-memory", func(r *request, b []byte, h http.Header) []byte {
			if r.admitted == "true" {
				h.Set("X-Hydra-Admitted", "false")
			}
			return b
		}},
		// The pinned durable plan carries denied deltas; admitting one
		// must fail.
		{"session-durable", func(r *request, b []byte, h http.Header) []byte {
			if r.admitted == "false" {
				h.Set("X-Hydra-Admitted", "true")
			}
			return b
		}},
	}
	for _, c := range cases {
		_, p := pinnedPlan(t, c.workload)
		if res := runPhase(fakeDaemon(t, p, clean), "closed", p.closed, 0, nil); res.mismatchCount != 0 || res.failed != 0 {
			t.Errorf("%s: clean responses failed the check: %v", c.workload, res.mismatches)
		}
		res := runPhase(fakeDaemon(t, p, c.corrupt), "closed", p.closed, 0, nil)
		if res.mismatchCount == 0 {
			t.Errorf("%s: corrupted responses passed the check", c.workload)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
}
