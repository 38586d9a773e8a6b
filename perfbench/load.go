package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// clients is the load generator's concurrency: two closed-loop clients
// or two open-loop senders, each on its own keep-alive connection.
const clients = 2

// reqIDHeader carries the benchmark's request id, which the traced run
// uses to join client, handler and replay spans.
const reqIDHeader = "X-Bench-Request"

// target is where load goes: hydrad's base URL plus the ids of the
// sessions opened at set-up, in plan order.
type target struct {
	client *http.Client
	base   string
	ids    []string
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func (t *target) url(r *request) string {
	if r.session < 0 {
		return t.base + "/v1/analyze"
	}
	return t.base + "/v1/session/" + t.ids[r.session] + "/admit"
}

// post sends one request and reads the whole response into buf (a
// fresh buffer when buf is nil); the returned bytes alias buf.
func (t *target) post(url string, body []byte, id string, buf *bytes.Buffer) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(reqIDHeader, id)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes(), err
}

// sent describes one finished request to a phase observer.
type sent struct {
	id         string
	r          *request
	start, end time.Time
	body       []byte
}

// phaseResult holds one phase's raw outcome.
type phaseResult struct {
	// lats are successful request latencies in ms; open-loop latencies
	// run from each request's due time.
	lats []float64
	// late is, per open-loop request, how long after its due time it
	// was sent (ms).
	late []float64
	// done is, per successful request, its completion time in seconds
	// since the phase started, for throughput timelines.
	done              []float64
	attempted, failed int
	wall              time.Duration
	mismatches        []string
	mismatchCount     int
	deferred          []deferredCheck
	mu                sync.Mutex
}

type deferredCheck struct {
	id         string
	body, want []byte
}

func (p *phaseResult) mismatch(format string, args ...any) {
	p.mismatchCount++
	if len(p.mismatches) < 5 {
		p.mismatches = append(p.mismatches, fmt.Sprintf(format, args...))
	}
}

// job is one request handed to a sender.
type job struct {
	k, i int
	// due is when an open-loop request falls due; zero in a closed loop,
	// where a request is timed from when it is sent.
	due time.Time
	// after, when non-nil, is closed once the previous request to the
	// same session is answered; done is this request's own signal.
	after, done chan struct{}
}

// runPhase replays seqs, one sequence per client, over two connections.
// rate == 0 runs a closed loop: each client sends its next request once
// the previous reply is read. rate > 0 runs an open loop: request n of
// the interleaved schedule (client n%2's request n/2) falls due at
// n/rate seconds and goes to whichever connection is free, so a slow
// reply holds later requests back only while both connections are busy.
// A session's request still waits for the reply to its previous one,
// keeping every session's deltas in plan order. observe, when non-nil,
// sees every completed request.
func runPhase(t *target, name string, seqs [2][]request, rate int, observe func(sent)) *phaseResult {
	res := &phaseResult{}
	start := time.Now()
	var wg sync.WaitGroup
	send := func(jobs <-chan job) {
		defer wg.Done()
		var buf bytes.Buffer
		for j := range jobs {
			if j.after != nil {
				<-j.after
			}
			r := &seqs[j.k][j.i]
			id := fmt.Sprintf("%s-%d-%d", name, j.k, j.i)
			t0 := time.Now()
			due := j.due
			if due.IsZero() {
				due = t0
			}
			resp, body, err := t.post(t.url(r), r.body, id, &buf)
			end := time.Now()
			if j.done != nil {
				close(j.done)
			}
			res.mu.Lock()
			res.attempted++
			if !j.due.IsZero() {
				res.late = append(res.late, ms(t0.Sub(due)))
			}
			switch {
			case err != nil:
				res.failed++
				res.mismatch("%s: %v", id, err)
			case resp.StatusCode != http.StatusOK:
				res.failed++
				res.mismatch("%s: status %d: %.200s", id, resp.StatusCode, body)
			default:
				res.lats = append(res.lats, ms(end.Sub(due)))
				res.done = append(res.done, end.Sub(start).Seconds())
				if got := resp.Header.Get("X-Hydra-Admitted"); got != r.admitted {
					res.mismatch("%s: X-Hydra-Admitted %q, want %q", id, got, r.admitted)
				}
				if r.canon {
					res.deferred = append(res.deferred, deferredCheck{id: id, body: bytes.Clone(body), want: r.want})
				} else if !bytes.Equal(body, r.want) {
					res.mismatch("%s: response differs from the reference (%d bytes, want %d)", id, len(body), len(r.want))
				}
			}
			res.mu.Unlock()
			if observe != nil {
				observe(sent{id: id, r: r, start: t0, end: end, body: body})
			}
		}
	}
	if rate == 0 {
		for k, seq := range seqs {
			// Sized to the sequence: the client's whole plan is queued
			// up front and the sender works through it in order.
			jobs := make(chan job, len(seq))
			for i := range seq {
				jobs <- job{k: k, i: i}
			}
			close(jobs)
			wg.Add(1)
			go send(jobs)
		}
	} else {
		jobs := make(chan job)
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go send(jobs)
		}
		last := map[int]chan struct{}{}
		for n := 0; n/2 < len(seqs[n%2]); n++ {
			j := job{k: n % 2, i: n / 2, due: start.Add(time.Duration(float64(n) / float64(rate) * float64(time.Second)))}
			if s := seqs[j.k][j.i].session; s >= 0 {
				j.after, j.done = last[s], make(chan struct{})
				last[s] = j.done
			}
			if d := time.Until(j.due); d > 0 {
				time.Sleep(d)
			}
			jobs <- j
		}
		close(jobs)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, c := range res.deferred {
		got, err := canonical(c.body)
		if err != nil {
			res.mismatch("%s: %v", c.id, err)
		} else if !bytes.Equal(got, c.want) {
			res.mismatch("%s: canonical report differs from the reference", c.id)
		}
	}
	res.deferred = nil
	return res
}

// timeline counts completions per half second: [window end s, count].
func timeline(done []float64) [][2]float64 {
	var out [][2]float64
	for _, t := range done {
		i := int(t * 2)
		for len(out) <= i {
			out = append(out, [2]float64{float64(len(out)+1) / 2, 0})
		}
		out[i][1]++
	}
	return out
}

// merge appends r's samples to p; r's completion times follow p's.
func (p *phaseResult) merge(r *phaseResult) {
	for _, t := range r.done {
		p.done = append(p.done, p.wall.Seconds()+t)
	}
	p.lats = append(p.lats, r.lats...)
	p.late = append(p.late, r.late...)
	p.attempted += r.attempted
	p.failed += r.failed
	p.wall += r.wall
	p.mismatchCount += r.mismatchCount
	for _, m := range r.mismatches {
		if len(p.mismatches) < 5 {
			p.mismatches = append(p.mismatches, m)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// withFailures appends one +Inf latency per failed request, so a
// failure counts as missing every latency limit.
func withFailures(lats []float64, failed int) []float64 {
	out := append([]float64(nil), lats...)
	for i := 0; i < failed; i++ {
		out = append(out, math.Inf(1))
	}
	return out
}

// histogram buckets latencies on a log scale, eight buckets per
// doubling; each entry is [upper bound in ms, count], empty buckets
// omitted, so later analyses can recompute any quantile to within 9%.
func histogram(lats []float64) [][2]float64 {
	counts := map[int]int{}
	for _, v := range lats {
		counts[int(math.Ceil(8*math.Log2(math.Max(v, 1e-3)/1e-3)))]++
	}
	keys := make([]int, 0, len(counts))
	for b := range counts {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	out := make([][2]float64, 0, len(keys))
	for _, b := range keys {
		out = append(out, [2]float64{1e-3 * math.Exp2(float64(b)/8), float64(counts[b])})
	}
	return out
}
