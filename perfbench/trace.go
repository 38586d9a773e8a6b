package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hydrac"
	"hydrac/internal/admit"
	"hydrac/internal/baseline"
	"hydrac/internal/core"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/partition"
	"hydrac/internal/store"
	"hydrac/internal/wal"
)

// The traced run serves the workload's plan from hydradhttp.NewHandler
// mounted in this process behind a timing middleware, then replays each
// closed-loop request through the public functions that handler calls,
// on twins of the served state. Spans carry the request id of the served
// request they explain, so each request has one tree:
//
//	client
//	└─ hydradhttp.handler
//	   ├─ task.decode
//	   └─ hydrac.analyze | hydrac.session_admit | store.admit
//	      └─ the layer calls the pipeline makes
//
// Replayed children run after their parent rather than inside it, so a
// span's self time is its duration minus its children's durations, not
// minus the part of its interval they cover. On analyze-dup a byte-cache
// hit calls no library function; its decode, hash and analyzer-hit spans
// are recorded beside the tree, not under the handler.

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) add(name, req string, parent int, start, end time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))})
	return len(tr.spans) - 1
}

// time records f as a span.
func (tr *tracer) time(name, req string, parent int, f func() error) (int, error) {
	start := time.Now()
	err := f()
	return tr.add(name, req, parent, start, time.Now()), err
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceRun is the per-layer run.
func traceRun(w *workload, seed int64, seconds int, dir, resultsDir string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	p, err := checkedPlan(w, seed, w.runSizes(seconds), res)
	if err != nil {
		return nil, err
	}
	tr := &tracer{epoch: time.Now()}
	a, err := w.newAnalyzer(defaultCache)
	if err != nil {
		return nil, err
	}
	cfg := hydradhttp.Config{Analyzer: a, MaxSessions: w.sessions, CacheSize: defaultCache}
	storeOpts := store.Options{MaxLive: w.sessions, ProbeEvery: -1}
	var ids []string
	if w.durable {
		// Prime a store through the handler, then serve from a reopened
		// one, as hydrad does after a restart.
		st, err := store.Open(filepath.Join(dir, "served"), a, storeOpts)
		if err != nil {
			return nil, err
		}
		cfg.Store = st
		t, stop, err := serveTraced(cfg, nil)
		if err == nil {
			err = prepare(t, p)
			ids = t.ids
			stop()
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if cfg.Store, err = store.Open(filepath.Join(dir, "served"), a, storeOpts); err != nil {
			return nil, err
		}
		defer cfg.Store.Close()
	}
	t, stop, err := serveTraced(cfg, tr)
	if err != nil {
		return nil, err
	}
	t.ids = ids
	if err := prepare(t, p); err != nil {
		stop()
		return nil, err
	}
	var hits, analyzed int
	var hmu sync.Mutex
	closed := runPhase(t, "closed", p.closed, 0, func(s sent) {
		tr.add("client", s.id, -1, s.start, s.end)
		if s.r.session < 0 {
			rep, err := hydrac.ReadReport(bytes.NewReader(s.body))
			hmu.Lock()
			analyzed++
			switch {
			case err != nil:
				res.problem("%s: undecodable report: %v", s.id, err)
			case rep.FromCache:
				hits++
			}
			hmu.Unlock()
		}
	})
	open := runPhase(t, "open", p.open, w.openRate, nil)
	stop()
	res.absorb(closed)
	res.absorb(open)

	rp, err := newReplayer(w, p, tr, dir, res)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replayPerClient; i++ {
		for k := 0; k < clients; k++ {
			if i < len(p.closed[k]) {
				if err := rp.replay(fmt.Sprintf("closed-%d-%d", k, i), &p.closed[k][i]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := rp.close(); err != nil {
		return nil, err
	}
	layerMetrics(tr, rp, res)
	res.Metrics["hydrac.cache_hit_ratio"] = metric{ratio(hits, analyzed), "ratio"}
	res.Metrics["loadgen.late_ms_p99"] = metric{quantile(open.late, 0.99), "ms"}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	return res, tr.write(filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, seed)))
}

// replayPerClient bounds the replay to the first closed-loop requests of
// each client (a prefix, so session twins still see every delta in
// order): enough samples for a p99, and it keeps a traced run well inside
// its time limit.
const replayPerClient = 1000

func ratio(n, d int) float64 { return frac(float64(n), float64(d)) }

func frac(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// serveTraced mounts the handler on a loopback listener, behind a
// middleware that records a hydradhttp.handler span per request when tr
// is non-nil. stop closes the server and waits for it.
func serveTraced(cfg hydradhttp.Config, tr *tracer) (*target, func(), error) {
	h := hydradhttp.NewHandler(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(rw, r)
		if id := r.Header.Get(reqIDHeader); tr != nil && id != "" {
			tr.add("hydradhttp.handler", id, -1, start, time.Now())
		}
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	stop := func() {
		_ = srv.Close()
		<-served
	}
	return &target{client: newClient(), base: "http://" + ln.Addr().String()}, stop, nil
}

// twinSession is the replay state of one session.
type twinSession struct {
	sess *hydrac.Session // memory: the session Admit is timed on
	eng  *admit.Engine
	id   string // durable: the twin store's session id
}

// replayer re-runs requests through the layers' public functions.
type replayer struct {
	w   *workload
	tr  *tracer
	res *result
	ctx context.Context
	// replayed holds the ids of the requests replayed; only their served
	// spans enter the shares.
	replayed map[string]bool
	// cold is a cacheless analyzer (every AnalyzeEnvelope misses); warm
	// holds every analyze body of the plan (every call hits).
	cold, warm *hydrac.Analyzer
	sessions   []*twinSession
	st         *store.Store
	live       []string // the twin store's live set, most recent last
	log        *wal.Log

	acquires, rehydrates, walBytes, deltas int
	fullSelections, ops                    int
	sumStats                               struct{ adopted, verified, searched, checked, fromCache int }
	// byKind splits admissions into removals [0] and additions [1].
	byKind [2]struct {
		n, adopted, verified, searched int
		apply                          []float64
	}
}

func newReplayer(w *workload, p *plan, tr *tracer, dir string, res *result) (*replayer, error) {
	rp := &replayer{w: w, tr: tr, res: res, ctx: context.Background(), replayed: map[string]bool{}}
	var err error
	if rp.cold, err = w.newAnalyzer(0); err != nil {
		return nil, err
	}
	if rp.warm, err = w.newAnalyzer(len(p.warm) + 1); err != nil {
		return nil, err
	}
	for _, b := range p.warm {
		ts, err := hydrac.DecodeTaskSet(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		if _, _, err := rp.warm.AnalyzeEnvelope(rp.ctx, ts); err != nil {
			return nil, err
		}
	}
	if len(p.bases) == 0 {
		return rp, nil
	}
	if w.durable {
		twinDir := filepath.Join(dir, "twin")
		opts := store.Options{MaxLive: w.sessions, ProbeEvery: -1}
		if rp.st, err = store.Open(twinDir, rp.cold, opts); err != nil {
			return nil, err
		}
		for i, b := range p.bases {
			ts, err := hydrac.DecodeTaskSet(bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			id := fmt.Sprintf("s%03d", i)
			if _, err := tr.time("store.create", "setup", -1, func() error {
				_, err := rp.st.Create(rp.ctx, id, ts)
				return err
			}); err != nil {
				return nil, err
			}
		}
		if err := rp.st.Close(); err != nil {
			return nil, err
		}
		if _, err := tr.time("store.open", "setup", -1, func() error {
			rp.st, err = store.Open(twinDir, rp.cold, opts)
			return err
		}); err != nil {
			return nil, err
		}
		// Open re-adds every session in directory order, so the live
		// set is the last MaxLive ids.
		for i := max(0, len(p.bases)-w.sessions); i < len(p.bases); i++ {
			rp.live = append(rp.live, fmt.Sprintf("s%03d", i))
		}
		walDir := filepath.Join(dir, "wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		if rp.log, _, err = wal.Open(walDir, wal.Options{NoSync: true}); err != nil {
			return nil, err
		}
	}
	for i, b := range p.bases {
		ts, err := hydrac.DecodeTaskSet(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		twin := &twinSession{id: fmt.Sprintf("s%03d", i)}
		if twin.eng, _, err = admit.New(rp.ctx, ts, admit.Config{Heuristic: partition.BestFit}); err != nil {
			return nil, err
		}
		if !w.durable {
			if twin.sess, _, err = rp.cold.NewSession(rp.ctx, ts); err != nil {
				return nil, err
			}
		}
		rp.sessions = append(rp.sessions, twin)
	}
	return rp, nil
}

func (rp *replayer) close() error {
	var err error
	if rp.log != nil {
		err = rp.log.Close()
	}
	if rp.st != nil {
		if cerr := rp.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// replay re-runs one request; its spans hang under the served handler
// span of the same id once the trees are joined.
func (rp *replayer) replay(id string, r *request) error {
	rp.replayed[id] = true
	const parent = -2 // joined to the handler span in layerMetrics
	tr := rp.tr
	if r.session < 0 {
		var ts *hydrac.TaskSet
		aside := parent
		if !r.canon {
			aside = -1
		}
		if _, err := tr.time("task.decode", id, aside, func() (err error) {
			ts, err = hydrac.DecodeTaskSet(bytes.NewReader(r.body))
			return err
		}); err != nil {
			return err
		}
		if !r.canon {
			// analyze-dup: what the analyzer-level hit costs.
			tr.time("task.hash", id, -1, func() error { ts.Hash(); return nil })
			_, err := tr.time("hydrac.analyze_hit", id, -1, func() error {
				_, hit, err := rp.warm.AnalyzeEnvelope(rp.ctx, ts)
				if err == nil && !hit {
					err = fmt.Errorf("%s: warm analyzer missed", id)
				}
				return err
			})
			return err
		}
		var env []byte
		top, err := tr.time("hydrac.analyze", id, parent, func() (err error) {
			env, _, err = rp.cold.AnalyzeEnvelope(rp.ctx, ts)
			return err
		})
		if err != nil {
			return err
		}
		tr.time("task.hash", id, top, func() error { ts.Hash(); return nil })
		if _, err := tr.time("task.validate", id, top, ts.Validate); err != nil {
			return err
		}
		cp := ts.Clone()
		if _, err := tr.time("partition.assign", id, top, func() error { return partition.AssignCtx(rp.ctx, cp, partition.BestFit) }); err != nil {
			return err
		}
		sc := core.DefaultScratchPool.Get(nil, core.SizeHint(cp))
		_, err = tr.time("core.select", id, top, func() error {
			_, err := core.SelectPeriodsCtxWith(rp.ctx, cp, core.Options{}, sc)
			return err
		})
		core.DefaultScratchPool.Put(sc)
		if err != nil {
			return err
		}
		for _, b := range rp.w.baselines {
			if b != hydrac.SchemeHydra {
				continue
			}
			if _, err := tr.time("baseline.hydra", id, top, func() error { _, err := baseline.Hydra(cp); return err }); err != nil {
				return err
			}
		}
		rep, err := hydrac.ReadReport(bytes.NewReader(env))
		if err != nil {
			return err
		}
		_, err = tr.time("hydrac.encode", id, top, func() error { return hydrac.WriteReport(io.Discard, rep) })
		return err
	}

	var d *hydrac.Delta
	if _, err := tr.time("task.decode", id, parent, func() (err error) {
		d, err = hydrac.DecodeDelta(bytes.NewReader(r.body))
		return err
	}); err != nil {
		return err
	}
	twin := rp.sessions[r.session]
	var rep *hydrac.Report
	var admitted bool
	var top int
	if rp.st == nil {
		var err error
		top, err = tr.time("hydrac.session_admit", id, parent, func() (err error) {
			rep, admitted, err = twin.sess.Admit(rp.ctx, *d)
			return err
		})
		if err != nil {
			return err
		}
	} else {
		var err error
		top, err = rp.storeAdmit(id, twin.id, d, &rep, &admitted)
		if err != nil {
			return err
		}
	}
	if got := fmt.Sprint(admitted); got != r.admitted {
		rp.res.problem("%s: replay admitted=%s, served %s", id, got, r.admitted)
	}
	var out *admit.Outcome
	apply, err := tr.time("admit.apply", id, top, func() (err error) {
		out, err = twin.eng.Apply(rp.ctx, *d)
		return err
	})
	if err != nil {
		return err
	}
	rp.ops++
	st := out.Stats
	kind := &rp.byKind[min(len(d.AddSecurity), 1)]
	kind.n++
	kind.adopted += st.Selection.Adopted
	kind.verified += st.Selection.Verified
	kind.searched += st.Selection.Searched
	kind.apply = append(kind.apply, tr.spans[apply].ms())
	rp.sumStats.adopted += st.Selection.Adopted
	rp.sumStats.verified += st.Selection.Verified
	rp.sumStats.searched += st.Selection.Searched
	rp.sumStats.checked += st.CoresChecked
	rp.sumStats.fromCache += st.CoresFromCache
	if st.FullSelection {
		rp.fullSelections++
	}
	if rp.log != nil && admitted {
		// The store logs every committed delta in this encoding.
		var rec bytes.Buffer
		if err := hydrac.EncodeDelta(&rec, d); err != nil {
			return err
		}
		rp.deltas++
		rp.walBytes += rec.Len()
		if _, err := tr.time("wal.append", id, top, func() error { return rp.log.Append(rec.Bytes()) }); err != nil {
			return err
		}
		if _, err := tr.time("wal.sync", id, top, rp.log.Sync); err != nil {
			return err
		}
	}
	// The handler, not Admit, renders the session report.
	_, err = tr.time("hydrac.encode", id, parent, func() error { return hydrac.WriteReport(io.Discard, rep) })
	return err
}

// storeAdmit times one durable admission on the twin store: acquire
// (a hit, or a re-hydration from snapshot plus WAL), admit (which
// appends and fsyncs the WAL through the commit hook), release.
func (rp *replayer) storeAdmit(id, sid string, d *hydrac.Delta, rep **hydrac.Report, admitted *bool) (int, error) {
	acquire := "store.acquire_hit"
	if !rp.touch(sid) {
		acquire = "store.rehydrate"
		rp.rehydrates++
	}
	rp.acquires++
	start := time.Now()
	var sess *hydrac.Session
	var release func()
	acq, err := rp.tr.time(acquire, id, -1, func() (err error) {
		sess, release, err = rp.st.Acquire(rp.ctx, sid)
		return err
	})
	if err != nil {
		return 0, err
	}
	top, err := rp.tr.time("hydrac.session_admit", id, -1, func() (err error) {
		*rep, *admitted, err = sess.Admit(rp.ctx, *d)
		return err
	})
	release()
	if err != nil {
		return 0, err
	}
	outer := rp.tr.add("store.admit", id, -2, start, time.Now())
	rp.tr.spans[acq].Parent, rp.tr.spans[top].Parent = outer, outer
	return top, nil
}

// touch mirrors the store's live-set LRU: it reports whether sid was
// live and makes it the most recent entry.
func (rp *replayer) touch(sid string) bool {
	hit := false
	for i, s := range rp.live {
		if s == sid {
			rp.live = append(rp.live[:i], rp.live[i+1:]...)
			hit = true
			break
		}
	}
	rp.live = append(rp.live, sid)
	if len(rp.live) > rp.w.sessions {
		rp.live = rp.live[1:]
	}
	return hit
}

// layerMetrics joins each replayed tree to its served handler span and
// derives every per-layer metric.
func layerMetrics(tr *tracer, rp *replayer, res *result) {
	client, handler := map[string]int{}, map[string]int{}
	for i, s := range tr.spans {
		switch s.Name {
		case "client":
			client[s.Req] = i
		case "hydradhttp.handler":
			handler[s.Req] = i
		}
	}
	for req, h := range handler {
		if c, ok := client[req]; ok {
			tr.spans[h].Parent = c
		} else {
			tr.spans[h].Parent = -1
		}
	}
	children := make([]float64, len(tr.spans))
	for i := range tr.spans {
		if tr.spans[i].Parent == -2 {
			if h, ok := handler[tr.spans[i].Req]; ok {
				tr.spans[i].Parent = h
			} else {
				tr.spans[i].Parent = -1
			}
		}
		if p := tr.spans[i].Parent; p >= 0 {
			children[p] += tr.spans[i].ms()
		}
	}
	durs := map[string][]float64{}
	self := map[string]float64{}
	var clientTotal, handlerTotal, handlerChildren float64
	var transport, selfAnalyze []float64
	for i, s := range tr.spans {
		d := s.ms()
		durs[s.Name] = append(durs[s.Name], d)
		own := d - children[i]
		replayed := rp.replayed[s.Req]
		switch s.Name {
		case "client":
			transport = append(transport, own)
			if !replayed {
				continue
			}
			clientTotal += d
		case "hydradhttp.handler":
			if replayed {
				handlerTotal += d
				handlerChildren += children[i]
			}
			continue
		case "hydrac.analyze":
			selfAnalyze = append(selfAnalyze, own)
		}
		if s.Parent >= 0 || s.Name == "client" {
			self[s.Name] += math.Max(0, own)
		}
	}
	share := func(name string) float64 { return frac(self[name], clientTotal) }
	p := func(name string, q float64) float64 { return quantile(durs[name], q) }
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	set("hydradhttp.handler.p50_ms", p("hydradhttp.handler", 0.5), "ms")
	set("hydradhttp.handler.self_share", frac(math.Max(0, handlerTotal-handlerChildren), clientTotal), "ratio")
	set("http.transport.p50_ms", quantile(transport, 0.5), "ms")
	set("task.decode.p50_ms", p("task.decode", 0.5), "ms")
	set("task.hash.p50_ms", p("task.hash", 0.5), "ms")
	set("task.validate.p50_ms", p("task.validate", 0.5), "ms")
	set("hydrac.encode.p50_ms", p("hydrac.encode", 0.5), "ms")
	set("partition.assign.p50_ms", p("partition.assign", 0.5), "ms")
	set("partition.assign.self_share", share("partition.assign"), "ratio")
	set("core.select.p50_ms", p("core.select", 0.5), "ms")
	set("core.select.p99_ms", p("core.select", 0.99), "ms")
	set("core.select.self_share", share("core.select"), "ratio")
	set("core.adopted_per_op", ratio(rp.sumStats.adopted, rp.ops), "count")
	set("core.verified_per_op", ratio(rp.sumStats.verified, rp.ops), "count")
	set("core.searched_per_op", ratio(rp.sumStats.searched, rp.ops), "count")
	set("baseline.hydra.p50_ms", p("baseline.hydra", 0.5), "ms")
	set("baseline.hydra.self_share", share("baseline.hydra"), "ratio")
	set("hydrac.analyze.self_ms", quantile(selfAnalyze, 0.5), "ms")
	set("hydrac.analyze_hit.p50_ms", p("hydrac.analyze_hit", 0.5), "ms")
	set("hydrac.session_admit.p50_ms", p("hydrac.session_admit", 0.5), "ms")
	set("admit.apply.p50_ms", p("admit.apply", 0.5), "ms")
	set("admit.apply.p99_ms", p("admit.apply", 0.99), "ms")
	set("admit.core_cache_hit_ratio", ratio(rp.sumStats.fromCache, rp.sumStats.fromCache+rp.sumStats.checked), "ratio")
	set("admit.full_selection_ratio", ratio(rp.fullSelections, rp.ops), "ratio")
	set("store.create.p50_ms", p("store.create", 0.5), "ms")
	set("store.acquire_hit.p50_ms", p("store.acquire_hit", 0.5), "ms")
	set("store.rehydrate.p50_ms", p("store.rehydrate", 0.5), "ms")
	set("store.rehydrate_ratio", ratio(rp.rehydrates, rp.acquires), "ratio")
	set("store.admit.p50_ms", p("store.admit", 0.5), "ms")
	set("store.open_s", p("store.open", 0.5)/1000, "s")
	set("wal.append.p50_ms", p("wal.append", 0.5), "ms")
	set("wal.sync.p50_ms", p("wal.sync", 0.5), "ms")
	set("wal.sync.p99_ms", p("wal.sync", 0.99), "ms")
	set("wal.bytes_per_delta", ratio(rp.walBytes, rp.deltas), "bytes")
	set("trace.client.p50_ms", p("client", 0.5), "ms")
	// Removals and additions apart: the remove path re-verifies every
	// monitor below the removed one, the bottom-priority add only itself.
	for i, kind := range []string{"remove", "add"} {
		k := rp.byKind[i]
		res.Extra["core.adopted_per_"+kind] = metric{ratio(k.adopted, k.n), "count"}
		res.Extra["core.verified_per_"+kind] = metric{ratio(k.verified, k.n), "count"}
		res.Extra["core.searched_per_"+kind] = metric{ratio(k.searched, k.n), "count"}
		res.Extra["admit.apply_"+kind+".p50_ms"] = metric{quantile(k.apply, 0.5), "ms"}
	}
	set("trace.unexplained_ratio", frac(math.Max(0, handlerChildren-handlerTotal), clientTotal), "ratio")
}
