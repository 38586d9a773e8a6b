package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hydrac"
)

// hintBase is handoffBase with a band of monitors, so the snapshot's
// periods have several tasks to verify (and to get wrong).
func hintBase() *hydrac.TaskSet {
	ts := handoffBase()
	for k := 0; k < 6; k++ {
		ts.Security = append(ts.Security, hydrac.SecurityTask{
			Name: fmt.Sprintf("base%02d", k), WCET: 1 + hydrac.Time(k%2),
			MaxPeriod: hydrac.Time(300 + 40*k), Core: -1, Priority: 10 + k,
		})
	}
	return ts
}

// latestSnapshot reads the authoritative snapshot of one session dir.
func latestSnapshot(t *testing.T, dir string) (uint64, *snapshotFile) {
	t.Helper()
	gen, sf, _, err := readLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return gen, sf
}

// rewriteSnapshot edits the latest snapshot of dir in place.
func rewriteSnapshot(t *testing.T, dir string, edit func(*snapshotFile)) {
	t.Helper()
	gen, sf := latestSnapshot(t, dir)
	edit(sf)
	raw, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, gen), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reportJSON is a report's canonical bytes.
func reportJSON(t *testing.T, rep *hydrac.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// committedPeriods keys a report's periods by task name, nil when it
// is unschedulable — what a snapshot of that state must store.
func committedPeriods(rep *hydrac.Report) map[string]hydrac.Time {
	if !rep.Schedulable {
		return nil
	}
	m := map[string]hydrac.Time{}
	for _, v := range rep.Tasks {
		m[v.Name] = v.Period
	}
	return m
}

// buildHinted creates session "h" over hintBase in a fresh store
// under root, commits `deltas` monitor deltas, and closes the store.
// It returns an uninterrupted twin that took the same deltas and the
// twin's report after each commit count (reports[0] is the base).
func buildHinted(t *testing.T, a *hydrac.Analyzer, root string, opt Options, deltas int) (*hydrac.Session, []*hydrac.Report) {
	t.Helper()
	ctx := context.Background()
	st, err := Open(root, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(ctx, "h", hintBase()); err != nil {
		t.Fatal(err)
	}
	sess, release, err := st.Acquire(ctx, "h")
	if err != nil {
		t.Fatal(err)
	}
	twin, rep, err := a.NewSession(ctx, hintBase())
	if err != nil {
		t.Fatal(err)
	}
	reports := []*hydrac.Report{rep}
	for k := 0; k < deltas; k++ {
		if _, ok, err := sess.Admit(ctx, handoffDelta(k)); err != nil || !ok {
			t.Fatalf("delta %d: admitted=%v err=%v", k, ok, err)
		}
		rep, ok, err := twin.Admit(ctx, handoffDelta(k))
		if err != nil || !ok {
			t.Fatalf("twin delta %d: admitted=%v err=%v", k, ok, err)
		}
		reports = append(reports, rep)
	}
	release()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return twin, reports
}

// assertRecoversLikeTwin reopens root and requires session "h" to hold
// the twin's exact set and answer the next delta with the twin's exact
// report bytes.
func assertRecoversLikeTwin(t *testing.T, a *hydrac.Analyzer, root string, opt Options, twin *hydrac.Session, next int) {
	t.Helper()
	ctx := context.Background()
	st, err := Open(root, a, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if got, want := sessionBytes(t, st, "h"), encodeSet(t, twin.Set()); !bytes.Equal(got, want) {
		t.Fatalf("recovered set differs:\ngot:  %s\nwant: %s", got, want)
	}
	sess, release, err := st.Acquire(ctx, "h")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got, want := sess.PlacementCursor(), twin.PlacementCursor(); got != want {
		t.Fatalf("recovered cursor %d, twin %d", got, want)
	}
	got, gotOK, err := sess.Admit(ctx, handoffDelta(next))
	if err != nil {
		t.Fatal(err)
	}
	want, wantOK, err := twin.Admit(ctx, handoffDelta(next))
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != wantOK || !bytes.Equal(reportJSON(t, got), reportJSON(t, want)) {
		t.Fatal("next report after recovery differs from the uninterrupted session")
	}
}

// The snapshot's periods are hints: recovery from the stored periods,
// from an old-format snapshot without them, and from wrong ones must
// all be byte-identical to the session that never restarted.
func TestRecoveryHintsCannotChangeResults(t *testing.T) {
	a := handoffAnalyzer(t)
	cases := []struct {
		name string
		edit func(sf *snapshotFile)
	}{
		{"stored", func(*snapshotFile) {}},
		{"old-format", func(sf *snapshotFile) { sf.Periods = nil }},
		{"wrong", func(sf *snapshotFile) {
			names := make([]string, 0, len(sf.Periods))
			for name := range sf.Periods {
				names = append(names, name)
			}
			sort.Strings(names)
			wrong := map[string]hydrac.Time{"no-such-task": 50}
			for i, name := range names {
				switch i % 4 {
				case 0:
					wrong[name] = sf.Periods[name] + 1
				case 1:
					wrong[name] = sf.Periods[name] - 1
				case 2:
					wrong[name] = sf.Periods[names[(i+1)%len(names)]] // swapped
				default:
					wrong[name] = 1 << 40 // above any Tmax
				}
			}
			sf.Periods = wrong
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			twin, reports := buildHinted(t, a, root, Options{}, 4)
			dir := filepath.Join(root, "h")
			gen, sf := latestSnapshot(t, dir)
			if gen != 0 {
				t.Fatalf("snapshot generation %d, want 0 (no compaction)", gen)
			}
			if want := committedPeriods(reports[0]); want == nil || !reflect.DeepEqual(sf.Periods, want) {
				t.Fatalf("Create stored periods %v, want the base's committed %v", sf.Periods, want)
			}
			rewriteSnapshot(t, dir, tc.edit)
			assertRecoversLikeTwin(t, a, root, Options{}, twin, 4)
		})
	}
}

// Compaction writes the periods the commit hook hands it: the latest
// snapshot stores exactly the committed periods of the state it
// captures, and recovery from it stays byte-identical.
func TestCompactionStoresHookPeriods(t *testing.T) {
	a := handoffAnalyzer(t)
	root := t.TempDir()
	opt := Options{CompactEvery: 2}
	twin, reports := buildHinted(t, a, root, opt, 7) // compactions at 2, 4, 6
	gen, sf := latestSnapshot(t, filepath.Join(root, "h"))
	if gen != 3 {
		t.Fatalf("snapshot generation %d, want 3", gen)
	}
	if want := committedPeriods(reports[6]); want == nil || !reflect.DeepEqual(sf.Periods, want) {
		t.Fatalf("compacted snapshot stored periods %v, want the committed %v", sf.Periods, want)
	}
	assertRecoversLikeTwin(t, a, root, opt, twin, 7)
}

// An unschedulable committed state has no periods to store, and the
// field is left out.
func TestUnschedulableSnapshotOmitsPeriods(t *testing.T) {
	ctx := context.Background()
	a := handoffAnalyzer(t)
	root := t.TempDir()
	st, err := Open(root, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := handoffBase()
	base.Security = append(base.Security, hydrac.SecurityTask{Name: "crusher", WCET: 100, MaxPeriod: 101, Core: -1, Priority: 9})
	rep, err := st.Create(ctx, "u", base)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if rep.Schedulable {
		t.Fatal("fixture is schedulable; the test needs an unschedulable base")
	}
	raw, err := os.ReadFile(snapshotPath(filepath.Join(root, "u"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"periods"`)) {
		t.Fatalf("unschedulable snapshot stores periods: %s", raw)
	}
}

// withProcs runs f with GOMAXPROCS set to n, so Open's recovery chunks
// hold n sessions whatever the host's CPU count.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// buildFleet creates n sessions s0..s<n-1> under root and closes the
// store.
func buildFleet(t *testing.T, a *hydrac.Analyzer, root string, n int) {
	t.Helper()
	ctx := context.Background()
	st, err := Open(root, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := st.Create(ctx, fmt.Sprintf("s%d", i), hintBase()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// Parallel recovery must fail exactly as the serial loop would: on the
// first bad session in directory order, whichever chunk it lands in
// and whatever the bad sessions after it.
func TestParallelOpenReportsFirstFailureInDirectoryOrder(t *testing.T) {
	a := handoffAnalyzer(t)
	for _, bad := range [][]int{{5, 7}, {3, 6}, {1, 2}, {8}} {
		root := t.TempDir()
		buildFleet(t, a, root, 9)
		for _, i := range bad {
			if err := os.WriteFile(snapshotPath(filepath.Join(root, fmt.Sprintf("s%d", i)), 0), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := fmt.Sprintf("recovering session s%d:", bad[0])
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				st, err := Open(root, a, Options{ProbeEvery: -1})
				if err == nil {
					st.Close()
					t.Fatalf("bad %v, GOMAXPROCS %d: Open succeeded", bad, procs)
				}
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("bad %v, GOMAXPROCS %d: got %v, want it to name s%d", bad, procs, err, bad[0])
				}
			})
		}
	}
}

// Parallel recovery leaves the live set a serial recovery would: the
// last MaxLive sessions in directory order, in the same LRU order (the
// next admission into the live set evicts the same session).
func TestParallelOpenLiveSetMatchesSerial(t *testing.T) {
	ctx := context.Background()
	a := handoffAnalyzer(t)
	root := t.TempDir()
	buildFleet(t, a, root, 9)
	materialised := func(st *Store) []string {
		var ids []string
		for _, id := range st.IDs() {
			e := st.entries[id]
			e.mu.RLock()
			if e.sess != nil {
				ids = append(ids, id)
			}
			e.mu.RUnlock()
		}
		return ids
	}
	var runs [][]string
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			st, err := Open(root, a, Options{MaxLive: 3, ProbeEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			live := materialised(st)
			if want := []string{"s6", "s7", "s8"}; !reflect.DeepEqual(live, want) {
				t.Fatalf("GOMAXPROCS %d: live set %v, want %v", procs, live, want)
			}
			// Touching s0 evicts the least recently recovered live one.
			_, release, err := st.Acquire(ctx, "s0")
			if err != nil {
				t.Fatal(err)
			}
			release()
			runs = append(runs, materialised(st))
		})
	}
	if want := []string{"s0", "s7", "s8"}; !reflect.DeepEqual(runs[0], want) || !reflect.DeepEqual(runs[1], want) {
		t.Fatalf("live sets after one more acquire: serial %v, parallel %v, want %v", runs[0], runs[1], want)
	}
}

// Detach exports the snapshot's periods, and Import stores them with
// the receiver's snapshot; exact, wrong or absent periods all import a
// session identical to the uninterrupted one.
func TestHandoffCarriesPeriods(t *testing.T) {
	ctx := context.Background()
	a := handoffAnalyzer(t)
	srcRoot := t.TempDir()
	opt := Options{CompactEvery: 4, ProbeEvery: -1}
	twin, reports := buildHinted(t, a, srcRoot, opt, 6) // compaction at 4
	src, err := Open(srcRoot, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var exp Export
	if err := src.Detach(ctx, "h", func(e Export) error { exp = e; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := committedPeriods(reports[4]); want == nil || !reflect.DeepEqual(exp.Periods, want) {
		t.Fatalf("export carries periods %v, want the snapshot's committed %v", exp.Periods, want)
	}
	wrong := map[string]hydrac.Time{}
	for name, p := range exp.Periods {
		wrong[name] = p + 1
	}
	for name, periods := range map[string]map[string]hydrac.Time{"exact": exp.Periods, "wrong": wrong, "none": nil} {
		root := t.TempDir()
		dst, err := Open(root, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		in := exp
		in.Periods = periods
		if err := dst.Import(ctx, "h", in, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := sessionBytes(t, dst, "h"), encodeSet(t, twin.Set()); !bytes.Equal(got, want) {
			t.Fatalf("%s: imported state differs from the uninterrupted session", name)
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		if _, sf := latestSnapshot(t, filepath.Join(root, "h")); !reflect.DeepEqual(sf.Periods, periods) {
			t.Fatalf("%s: receiver stored periods %v, want %v", name, sf.Periods, periods)
		}
	}
}
