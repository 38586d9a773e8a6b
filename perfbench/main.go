// Command perfbench is hydrac's benchmark. It runs one workload against
// a real hydrad subprocess over loopback and prints the end-to-end
// metrics, or, with -trace 1, runs the same inputs through an
// in-process handler and the layers' public functions and prints the
// per-layer breakdown. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.sh, which compiles hydrad from the same
// checkout:
//
//	bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and the metric definitions.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A run sets hydrad up at least minSetups times, and keeps going while
// the set-ups have taken less than setupBudget in all, up to maxSetups:
// a set-up of a few milliseconds, whose single samples scatter by a
// factor of three on a shared host, is then a median of dozens.
// setup_s is the median.
const (
	minSetups   = 7
	maxSetups   = 63
	setupBudget = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: analyze-cold | analyze-dup | session-memory | session-durable")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 16, "measured seconds per run (about three quarters closed loop, a quarter open loop)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	hydrad := fs.String("hydrad", "", "hydrad binary built from the tree under test")
	workdir := fs.String("workdir", ".bench_build", "directory for data dirs, results and spans")
	writePins := fs.String("write-pins", "", "regenerate the pinned input/report digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(clients, runtime.NumCPU()))
	// The load generator's own collections would add their pauses to
	// the latencies it measures; a larger heap target makes them rare.
	debug.SetGCPercent(400)
	if *writePins != "" {
		if err := regeneratePins(*writePins); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 2 || (*trace != 0 && *trace != 1) || (*trace == 0 && *hydrad == "") {
		fmt.Fprintln(stderr, "perfbench: need -workload (one of the four), -seconds >= 2, -trace 0|1 and, for -trace 0, -hydrad")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var out *result
	if *trace == 1 {
		out, err = traceRun(w, *seed, *seconds, dir, filepath.Join(*workdir, "results"))
	} else {
		out, err = measure(w, *seed, *seconds, *hydrad, dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.Host = hostInfo(dir)
	out.Workload, out.Seed, out.Seconds, out.Trace = w.name, *seed, *seconds, *trace
	if err := out.save(filepath.Join(*workdir, "results")); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.print(stdout)
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run records. The last stdout line carries
// only Correct, Attempted, Failed and the metrics; the results file
// keeps the rest.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     int    `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Problems lists the first correctness failures.
	Problems []string          `json:"problems,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// Extra holds figures printed but not gated (error_ratio, p99_ms,
	// the open-loop figures, host steal, per-kind trace counters).
	Extra map[string]metric `json:"extra,omitempty"`
	// Histograms holds the raw data: per-phase latency histograms (see
	// histogram), completion timelines, and per-window and per-set-up
	// values as [value, 1] pairs.
	Histograms map[string][][2]float64 `json:"histograms,omitempty"`
	Host       map[string]any          `json:"host"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) absorb(p *phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.mismatchCount > 0 {
		r.problem("%d wrong or failed responses, first: %s", p.mismatchCount, strings.Join(p.mismatches, "; "))
	}
}

func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)), b, 0o644)
}

// print writes a readable table, then the result line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %d: correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "cpu", "go", "kernel", "data_fs"} {
		fmt.Fprintf(w, "  host %s: %v\n", k, r.Host[k])
	}
	all := map[string]metric{}
	for k, v := range r.Metrics {
		all[k] = v
	}
	for k, v := range r.Extra {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// finite maps a +Inf quantile (failed requests) to the largest float,
// which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// measure is the end-to-end run against a hydrad subprocess.
func measure(w *workload, seed int64, seconds int, bin, dir string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}, Extra: map[string]metric{}, Histograms: map[string][][2]float64{}}
	p, err := checkedPlan(w, seed, w.runSizes(seconds), res)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, "data")
	var d *daemon
	var t *target
	var ids []string
	if w.durable {
		// Prime the data dir untimed; set-up is then restart recovery.
		if d, t, _, err = setUp(w, bin, dataDir, p, nil); err != nil {
			return nil, err
		}
		ids = t.ids
	}
	var setupTimes []float64
	for spent := 0.0; len(setupTimes) < maxSetups && (len(setupTimes) < minSetups || spent < setupBudget.Seconds()); {
		if d != nil {
			d.stop(syscall.SIGTERM)
		}
		var took time.Duration
		if d, t, took, err = setUp(w, bin, dataDir, p, ids); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		spent += took.Seconds()
	}
	defer func() { d.stop(syscall.SIGKILL) }()

	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	closed, err := runWindows(d, t, "closed", p.closed, 0)
	if err != nil {
		return nil, err
	}
	open, err := runWindows(d, t, "open", p.open, w.openRate)
	if err != nil {
		return nil, err
	}
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	// A shared host's hypervisor steals vCPU time at times; the share
	// during the phases tells a slow run from a slow program.
	res.Extra["host_steal_share"] = metric{frac(float64(steal1-steal0), float64(total1-total0)), "ratio"}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.absorb(closed.all)
	res.absorb(open.all)
	if w.durable {
		d.stop(syscall.SIGKILL)
		if err := checkRecovery(w, bin, dataDir, t.ids, p.finalSets, res); err != nil {
			return nil, err
		}
	}

	if n := slices.Min(closed.n); n < 1000 {
		res.problem("a closed-loop window left %d samples; its p99 needs at least 1000", n)
	}
	res.Metrics["throughput_rps"] = metric{median(closed.rps), "req/s"}
	res.Metrics["p50_ms"] = metric{median(closed.p50), "ms"}
	// p99 and the open-loop figures are printed but not gated: a shared
	// host's slow spells move them between runs by more than any allowed
	// bound (see README.md).
	res.Extra["p99_ms"] = metric{median(closed.p99), "ms"}
	res.Extra["open_p50_ms"] = metric{finite(quantile(withFailures(open.all.lats, open.all.failed), 0.50)), "ms"}
	res.Extra["open_p99_ms"] = metric{finite(quantile(withFailures(open.all.lats, open.all.failed), 0.99)), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{median(closed.cpu), "ms"}
	res.Metrics["rss_mb"] = metric{rss, "MiB"}
	res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	res.Extra["error_ratio"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	res.Extra["open_late_ms_p99"] = metric{quantile(open.all.late, 0.99), "ms"}
	res.Extra["open_rps"] = metric{median(open.rps), "req/s"}
	res.Extra["open_cpu_ms_per_op"] = metric{median(open.cpu), "ms"}
	res.Extra["closed_requests"] = metric{float64(closed.all.attempted), "count"}
	res.Extra["open_requests"] = metric{float64(open.all.attempted), "count"}
	res.Histograms["closed"] = histogram(closed.all.lats)
	res.Histograms["open"] = histogram(open.all.lats)
	res.Histograms["closed_timeline"] = timeline(closed.all.done)
	res.Histograms["open_timeline"] = timeline(open.all.done)
	for _, ws := range []struct {
		name string
		xs   []float64
	}{{"setup_s", setupTimes}, {"closed_window_rps", closed.rps}, {"closed_window_p50_ms", closed.p50},
		{"closed_window_p99_ms", closed.p99}, {"closed_window_cpu_ms_per_op", closed.cpu}} {
		for _, x := range ws.xs {
			res.Histograms[ws.name] = append(res.Histograms[ws.name], [2]float64{finite(x), 1})
		}
	}
	return res, nil
}

// windowsFor is how many equal sub-phases a phase of n requests runs
// as. The closed-loop metrics are the median over windows, so a slow
// spell of a few seconds on a shared host moves one window, not the
// run. Three windows, or nine when each of nine still holds 1000
// requests, as analyze-dup's short requests allow.
func windowsFor(n int) int {
	if n >= 9*1000 {
		return 9
	}
	return 3
}

// windowed is one phase run as windows.
type windowed struct {
	all                *phaseResult // every window's samples, pooled
	rps, p50, p99, cpu []float64    // per window
	n                  []int        // successful requests per window
}

func runWindows(d *daemon, t *target, name string, seqs [2][]request, rate int) (*windowed, error) {
	ws := &windowed{all: &phaseResult{}}
	windows := windowsFor(len(seqs[0]) + len(seqs[1]))
	for j := 0; j < windows; j++ {
		var chunk [2][]request
		for k, seq := range seqs {
			chunk[k] = seq[j*len(seq)/windows : (j+1)*len(seq)/windows]
		}
		c0, err := d.cpuTicks()
		if err != nil {
			return nil, err
		}
		r := runPhase(t, fmt.Sprintf("%s%d", name, j), chunk, rate, nil)
		c1, err := d.cpuTicks()
		if err != nil {
			return nil, err
		}
		lats := withFailures(r.lats, r.failed)
		ws.n = append(ws.n, len(r.lats))
		ws.rps = append(ws.rps, float64(len(r.lats))/r.wall.Seconds())
		ws.p50 = append(ws.p50, finite(quantile(lats, 0.5)))
		ws.p99 = append(ws.p99, finite(quantile(lats, 0.99)))
		ws.cpu = append(ws.cpu, float64(c1-c0)*ms(clockTick)/float64(max(len(r.lats), 1)))
		ws.all.merge(r)
	}
	return ws, nil
}

// checkedPlan draws the run's inputs after checking the generator and
// the reference analysis against the pinned digests.
func checkedPlan(w *workload, seed int64, sz sizes, res *result) (*plan, error) {
	pp, err := w.plan(w, pinSeed, w.pinSizes())
	if err != nil {
		return nil, fmt.Errorf("pinned plan: %w", err)
	}
	if err := checkPin(w, pp); err != nil {
		res.problem("%v", err)
	}
	p, err := w.plan(w, seed, sz)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return p, nil
}

// setUp starts hydrad and brings it to the state the measured phases
// start from: duplicate bodies posted twice, sessions opened (or, when
// ids is non-nil, already on disk). It returns the time from exec
// until the first measured request can be sent.
func setUp(w *workload, bin, dataDir string, p *plan, ids []string) (*daemon, *target, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin, w.daemonFlags(dataDir))
	if err != nil {
		return nil, nil, 0, err
	}
	t := &target{client: newClient(), base: d.base, ids: ids}
	if err := prepare(t, p); err != nil {
		d.stop(syscall.SIGKILL)
		return nil, nil, 0, fmt.Errorf("set-up: %w (hydrad: %s)", err, d.stderrTail())
	}
	return d, t, time.Since(start), nil
}

// prepare posts the warm-up bodies and opens the plan's sessions unless
// t already knows their ids.
func prepare(t *target, p *plan) error {
	for _, b := range p.warm {
		for i := 0; i < 2; i++ {
			resp, body, err := t.post(t.base+"/v1/analyze", b, "", nil)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("warm-up status %d: %.200s", resp.StatusCode, body)
			}
		}
	}
	if t.ids != nil {
		return nil
	}
	for i, b := range p.bases {
		resp, body, err := t.post(t.base+"/v1/session", b, "", nil)
		if err != nil {
			return err
		}
		var open struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &open); err != nil || resp.StatusCode != http.StatusOK || open.SessionID == "" {
			return fmt.Errorf("opening session %d: status %d: %.200s", i, resp.StatusCode, body)
		}
		t.ids = append(t.ids, open.SessionID)
	}
	return nil
}

// checkRecovery restarts hydrad on the data dir of a killed daemon and
// checks that every session reads back the state its acknowledged
// deltas imply. It is untimed; each client reads the sessions of its
// parity, since every read re-hydrates a session by replaying its WAL.
func checkRecovery(w *workload, bin, dataDir string, ids []string, want [][]byte, res *result) error {
	d, err := startDaemon(bin, w.daemonFlags(dataDir))
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer d.stop(syscall.SIGTERM)
	client := newClient()
	var mu sync.Mutex
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(ids); i += clients {
				resp, err := client.Get(d.base + "/v1/session/" + ids[i])
				if err != nil {
					errs[k] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[k] = err
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[i]) {
					mu.Lock()
					res.problem("session %d after SIGKILL and restart: status %d, state differs from its acknowledged deltas", i, resp.StatusCode)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// hostInfo records the machine a run measured.
func hostInfo(dataDir string) map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"kernel":     "unknown",
		"data_fs":    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	if fsType, err := filesystemOf(dataDir); err == nil {
		h["data_fs"] = fsType
	}
	return h
}

// filesystemOf names the filesystem type of the mount holding path,
// from /proc/self/mountinfo (the longest matching mount point wins).
func filesystemOf(path string) (string, error) {
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "", err
	}
	best, fsType := -1, ""
	for _, line := range strings.Split(string(b), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fsType = len(mp), g[0]
		}
	}
	if best < 0 {
		return "", errors.New("no mount found")
	}
	return fsType, nil
}
