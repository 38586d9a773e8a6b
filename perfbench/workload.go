package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"hydrac"
	"hydrac/internal/gen"
)

// workload is one traffic mix: the hydrad configuration it runs
// against, how its inputs are drawn from a seed, and the fixed request
// counts both commits of a comparison replay.
type workload struct {
	name string
	// sessions and baselines are hydrad's -sessions and -baselines
	// (-cache is always defaultCache); the in-process reference and the
	// traced run use the same values.
	sessions  int
	baselines []hydrac.Scheme
	// durable adds -data-dir and -wal-sync=true.
	durable bool
	// closedPerSec sizes the closed-loop phase: a run of s seconds sends
	// closedPerSec*3s/4 requests, a fixed seeded sequence, so both
	// commits of a comparison do the same work whatever their speed. It
	// is near the closed-loop throughput measured on a 2-core host when
	// the benchmark was set up, and high enough for 1000 requests in each
	// of the phase's windows.
	closedPerSec int
	// openRate is the open-loop arrival rate (req/s), a tenth to a
	// third of that closed-loop throughput: on a shared
	// 2-vCPU host whose speed drifts by a third, half the throughput
	// queued so deeply in slow spells that open-loop p99 spread by 70%
	// to 100% between runs. The phase lasts the last quarter of the run.
	openRate int
	// pool is the number of distinct task sets (analyze routes) or
	// sessions (session routes) the workload draws.
	pool int
	// hot is, for durable sessions, how many sessions per client take
	// nine in ten of its requests; the rest are touched rarely and
	// mostly re-hydrate from disk.
	hot  int
	plan func(w *workload, seed int64, sz sizes) (*plan, error)
}

// sizes fixes how much a plan draws.
type sizes struct {
	pool, closed, open int
}

const (
	// cores is M for every generated set (Table 3 configuration).
	cores = 4
	// defaultCache and defaultSessions are hydrad's own -cache and
	// -sessions defaults. Every workload runs at them except for
	// session-durable's live cap, which its traffic is defined by.
	defaultCache    = 1024
	defaultSessions = 256
	// liveSessions is hydrad's -sessions on session-durable: fewer than
	// the pool, so rarely used sessions are evicted and re-hydrate, and
	// more than twice the 40 hot sessions. The 56 spare slots keep a
	// hot session live: to be evicted it would have to sit idle while
	// about 560 requests pass (odds near e^-13). Re-hydration replays
	// every WAL record since the last snapshot, up to hydrad's default
	// -compact-every of 256, so one evicted hot session costs a hundred
	// admissions; how many a run evicts would vary from seed to seed
	// and swamp everything else.
	liveSessions = 96
)

var workloads = []*workload{
	{
		name:         "analyze-cold",
		sessions:     defaultSessions,
		baselines:    []hydrac.Scheme{hydrac.SchemeHydra},
		closedPerSec: 300,
		openRate:     100,
		// Half again the cache, so cyclic access over the pool never
		// hits; large, so that p99 spans many distinct heavy sets.
		pool: defaultCache * 3 / 2,
		plan: planAnalyzeCold,
	},
	{
		name:         "analyze-dup",
		sessions:     defaultSessions,
		closedPerSec: 10000,
		openRate:     1500,
		// Every (group, band size) stratum once: a seed's set-up cost
		// and mean body size then vary little.
		pool: 7 * 13,
		plan: planAnalyzeDup,
	},
	{
		name:         "session-memory",
		sessions:     defaultSessions,
		closedPerSec: 400,
		openRate:     120,
		pool:         64,
		plan:         planSessions,
	},
	{
		name:         "session-durable",
		sessions:     liveSessions,
		durable:      true,
		closedPerSec: 260,
		openRate:     75,
		pool:         2 * liveSessions,
		hot:          20,
		plan:         planSessions,
	},
}

// daemonFlags is the workload's hydrad command line beyond -addr.
func (w *workload) daemonFlags(dataDir string) []string {
	args := []string{"-cache", fmt.Sprint(defaultCache), "-sessions", fmt.Sprint(w.sessions)}
	for i, b := range w.baselines {
		if i == 0 {
			args = append(args, "-baselines", string(b))
		} else {
			args[len(args)-1] += "," + string(b)
		}
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-wal-sync=true")
	}
	return args
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runSizes is the plan size of a run of the given length.
func (w *workload) runSizes(seconds int) sizes {
	return sizes{pool: w.pool, closed: w.closedPerSec * seconds * 3 / 4, open: w.openRate * seconds / 4}
}

// request is one HTTP request of a plan with the response it must get.
type request struct {
	// session indexes plan.bases; -1 on analyze routes.
	session int
	body    []byte
	// want is the expected response body. Analyze misses carry a
	// per-call timing stamp, so canon asks for the response to be
	// compared after dropping timing and from_cache.
	want  []byte
	canon bool
	// admitted is the expected X-Hydra-Admitted header ("" on analyze).
	admitted string
}

// plan is everything a run sends, fixed before hydrad starts.
type plan struct {
	// bases are the session base sets opened at set-up, in order.
	bases [][]byte
	// warm are analyze bodies posted twice at set-up.
	warm [][]byte
	// closed and open hold each client's request sequence per phase.
	closed, open [2][]request
	// finalSets are, per session, the GET body its acknowledged deltas
	// imply once every request is served.
	finalSets [][]byte
}

// digests summarises a plan for the pinned correctness gate.
func (p *plan) digests() (inputs, reports, admitted string) {
	in, out := sha256.New(), sha256.New()
	put := func(h interface{ Write([]byte) (int, error) }, b []byte) {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	for _, b := range p.bases {
		put(in, b)
	}
	for _, b := range p.warm {
		put(in, b)
	}
	var adm bytes.Buffer
	for _, phase := range [][2][]request{p.closed, p.open} {
		for _, seq := range phase {
			for _, r := range seq {
				fmt.Fprintf(in, "%d/", r.session)
				put(in, r.body)
				put(out, r.want)
				if r.admitted != "" {
					adm.WriteByte(r.admitted[0])
				}
			}
			adm.WriteByte('|')
		}
	}
	for _, b := range p.finalSets {
		put(out, b)
	}
	return hex.EncodeToString(in.Sum(nil)), hex.EncodeToString(out.Sum(nil)), adm.String()
}

// newAnalyzer builds the in-process reference configured like the
// workload's hydrad.
func (w *workload) newAnalyzer(cache int) (*hydrac.Analyzer, error) {
	opts := []hydrac.AnalyzerOption{hydrac.WithCache(cache)}
	if len(w.baselines) > 0 {
		opts = append(opts, hydrac.WithBaselines(w.baselines...))
	}
	return hydrac.New(opts...)
}

// drawSets draws n distinct Table 3 sets. Set j comes from group
// groups[j%len(groups)] with exactly secTasks[j%len(secTasks)] security
// tasks: stratifying on the group and the band size, which drive the
// analysis cost, keeps every seed's mix of cheap and costly sets the
// same. Each draw is a pure function of (seed, group, index); an index
// with no partitionable draw moves on to index j+n, j+2n, ...
func drawSets(seed int64, groups, secTasks []int, n int) ([]*hydrac.TaskSet, error) {
	cfg := gen.TableThree(cores)
	out := make([]*hydrac.TaskSet, 0, n)
	for j := 0; j < n; j++ {
		cfg.SecTasksMin = secTasks[j%len(secTasks)]
		cfg.SecTasksMax = cfg.SecTasksMin
		var err error
		for a := 0; a < 8; a++ {
			var ts *hydrac.TaskSet
			if ts, err = cfg.GenerateAt(seed, groups[j%len(groups)], j+a*n); err == nil {
				out = append(out, ts)
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("drawing task set %d: %w", j, err)
		}
	}
	return out, nil
}

// between lists lo..hi.
func between(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func encodeSet(ts *hydrac.TaskSet) ([]byte, error) {
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, ts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeReport(rep *hydrac.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := hydrac.WriteReport(&buf, rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canonical renders a report envelope without its per-call fields
// (timing, from_cache), the form every comparison uses.
func canonical(body []byte) ([]byte, error) {
	rep, err := hydrac.ReadReport(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	rep.Timing, rep.FromCache = nil, false
	return writeReport(rep)
}

// planAnalyzeCold draws distinct 4-core sets from utilisation groups
// 2-8 with their RT tasks unpinned, so hydrad partitions every one.
// Requests cycle through the pool, which is larger than hydrad's cache.
func planAnalyzeCold(w *workload, seed int64, sz sizes) (*plan, error) {
	sets, err := drawSets(seed, between(2, 8), between(2*cores, 5*cores), sz.pool)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(sets))
	for i, ts := range sets {
		for j := range ts.RT {
			ts.RT[j].Core = -1
		}
		if bodies[i], err = encodeSet(ts); err != nil {
			return nil, err
		}
	}
	a, err := w.newAnalyzer(0)
	if err != nil {
		return nil, err
	}
	reps, err := a.AnalyzeBatch(context.Background(), sets)
	if err != nil {
		return nil, err
	}
	wants := make([][]byte, len(reps))
	for i, rep := range reps {
		if wants[i], err = writeReport(rep); err != nil {
			return nil, err
		}
	}
	start := rand.New(rand.NewSource(seed)).Intn(len(sets))
	p := &plan{}
	n := 0
	fill := func(count int, dst *[2][]request) {
		for i := 0; i < count; i, n = i+1, n+1 {
			k := (start + n) % len(sets)
			dst[n%2] = append(dst[n%2], request{session: -1, body: bodies[k], want: wants[k], canon: true})
		}
	}
	fill(sz.closed, &p.closed)
	fill(sz.open, &p.open)
	return p, nil
}

// planAnalyzeDup re-posts a small pool of bodies. Set-up posts each
// body twice, so every measured request is an exact-byte cache hit
// answered with the canonical hit envelope.
func planAnalyzeDup(w *workload, seed int64, sz sizes) (*plan, error) {
	sets, err := drawSets(seed, between(2, 8), between(2*cores, 5*cores), sz.pool)
	if err != nil {
		return nil, err
	}
	a, err := w.newAnalyzer(0)
	if err != nil {
		return nil, err
	}
	reps, err := a.AnalyzeBatch(context.Background(), sets)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	wants := make([][]byte, len(sets))
	for i, ts := range sets {
		b, err := encodeSet(ts)
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, b)
		reps[i].FromCache = true
		if wants[i], err = writeReport(reps[i]); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, ph := range []struct {
		n   int
		dst *[2][]request
	}{{sz.closed, &p.closed}, {sz.open, &p.open}} {
		for i := 0; i < ph.n; i++ {
			k := rng.Intn(len(sets))
			ph.dst[i%2] = append(ph.dst[i%2], request{session: -1, body: p.warm[k], want: wants[k]})
		}
	}
	return p, nil
}

// prioritySpacing spreads base security priorities apart so a probe
// monitor can be inserted mid-band without renumbering.
const prioritySpacing = 8

// oversized makes one in this many probe monitors too heavy to admit.
const oversized = 8

// sessionState is the in-process twin of one hydrad session used to
// derive the expected response of every delta.
type sessionState struct {
	twin  *hydrac.Session
	prios []int  // base security priorities, ascending
	probe string // acknowledged probe monitor awaiting removal
}

// planSessions opens sessions on distinct bases from group 4 with 12
// to 16 security tasks, a band narrow enough that no single base
// dominates the tail. Each
// request to a session removes the probe monitor it last had
// acknowledged or, when none is pending, adds a fresh one at the
// bottom of the security band or mid-band (a seeded coin). Client k
// owns the sessions with index ≡ k (mod 2), so each session's deltas
// arrive in plan order and every response is deterministic.
func planSessions(w *workload, seed int64, sz sizes) (*plan, error) {
	sets, err := drawSets(seed, []int{4}, between(3*cores, 4*cores), sz.pool)
	if err != nil {
		return nil, err
	}
	a, err := w.newAnalyzer(0)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	p := &plan{}
	states := make([]*sessionState, len(sets))
	for i, ts := range sets {
		st := &sessionState{}
		for j := range ts.Security {
			ts.Security[j].Priority *= prioritySpacing
			st.prios = append(st.prios, ts.Security[j].Priority)
		}
		sort.Ints(st.prios)
		b, err := encodeSet(ts)
		if err != nil {
			return nil, err
		}
		p.bases = append(p.bases, b)
		if st.twin, _, err = a.NewSession(ctx, ts); err != nil {
			return nil, fmt.Errorf("opening twin session %d: %w", i, err)
		}
		states[i] = st
	}
	// Clients own disjoint sessions, so their sequences are drawn (and
	// the twins advanced) in parallel, each from its own stream.
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*clients + int64(k)))
			probes := 0
			for _, ph := range []struct {
				n   int
				dst *[2][]request
			}{{sz.closed, &p.closed}, {sz.open, &p.open}} {
				for i := k; i < ph.n; i += clients {
					s := pickSession(rng, w, len(sets), k)
					probes++
					r, err := states[s].step(ctx, rng, s, fmt.Sprintf("probe%d-%05d", k, probes))
					if err != nil {
						errs[k] = err
						return
					}
					ph.dst[k] = append(ph.dst[k], r)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, st := range states {
		b, err := encodeSet(st.twin.Set())
		if err != nil {
			return nil, err
		}
		p.finalSets = append(p.finalSets, b)
	}
	return p, nil
}

// step draws session s's next delta: remove the pending probe, or add
// a probe monitor named name. It returns the request with the response
// the twin gives.
func (st *sessionState) step(ctx context.Context, rng *rand.Rand, s int, name string) (request, error) {
	var d hydrac.Delta
	if st.probe != "" {
		d.Remove = []string{st.probe}
	} else {
		d.AddSecurity = []hydrac.SecurityTask{probeMonitor(rng, name, st.prios)}
	}
	var body bytes.Buffer
	if err := hydrac.EncodeDelta(&body, &d); err != nil {
		return request{}, err
	}
	rep, admitted, err := st.twin.Admit(ctx, d)
	if err != nil {
		return request{}, fmt.Errorf("twin session %d: %w", s, err)
	}
	switch {
	case len(d.Remove) > 0:
		st.probe = ""
	case admitted:
		st.probe = name
	}
	want, err := writeReport(rep)
	if err != nil {
		return request{}, err
	}
	return request{session: s, body: body.Bytes(), want: want, admitted: fmt.Sprint(admitted)}, nil
}

// pickSession draws the next session of client k: uniform over its
// sessions, or, for durable sessions, nine in ten from its first
// w.hot sessions and the rest from its cold remainder.
func pickSession(rng *rand.Rand, w *workload, n, k int) int {
	owned := (n - k + 1) / 2
	i := rng.Intn(owned)
	if w.hot > 0 && owned > w.hot {
		if rng.Intn(10) < 9 {
			i = rng.Intn(w.hot)
		} else {
			i = w.hot + rng.Intn(owned-w.hot)
		}
	}
	return 2*i + k
}

// probeMonitor draws a security monitor with Tmax log-uniform in
// Table 3's [1500, 3000] ms, placed at the bottom of the band or
// between two base monitors. Most are light (0.5-5% utilisation); one
// in eight draws 60-95%, more than most cores have free, so the
// workload also carries the denied deltas of over-ambitious requests.
func probeMonitor(rng *rand.Rand, name string, prios []int) hydrac.SecurityTask {
	tmax := hydrac.Time(math.Round(15000 * math.Exp(rng.Float64()*math.Log(2))))
	u := 0.005 + 0.045*rng.Float64()
	if rng.Intn(oversized) == 0 {
		u = 0.6 + 0.35*rng.Float64()
	}
	wcet := hydrac.Time(math.Max(1, math.Round(float64(tmax)*u)))
	prio := prios[len(prios)-1] + prioritySpacing
	if len(prios) > 1 && rng.Intn(2) == 0 {
		prio = prios[rng.Intn(len(prios)-1)] + prioritySpacing/2
	}
	return hydrac.SecurityTask{Name: name, WCET: wcet, MaxPeriod: tmax, Priority: prio, Core: -1}
}
