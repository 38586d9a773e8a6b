package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"hydrac"
)

// memoryDelta is the k-th delta of a sequence that moves the next-fit
// placement cursor: step 0 places an RT task that only fits core 1,
// step 1 removes it again (the cursor stays on core 1), and every
// later step adds a monitor plus, every third step, a small unpinned
// RT task that lands wherever the cursor points.
func memoryDelta(k int) hydrac.Delta {
	switch k {
	case 0:
		return hydrac.Delta{AddRT: []hydrac.RTTask{{Name: "wide", WCET: 11, Period: 40, Deadline: 40, Core: -1, Priority: 5}}}
	case 1:
		return hydrac.Delta{Remove: []string{"wide"}}
	}
	d := handoffDelta(k)
	if k%3 == 2 {
		d.AddRT = []hydrac.RTTask{{Name: fmt.Sprintf("rtx%03d", k), WCET: 1, Period: 100, Deadline: 100, Core: -1, Priority: 10 + k}}
	}
	return d
}

// memoryBase leaves core 0 too full for memoryDelta(0).
func memoryBase() *hydrac.TaskSet {
	ts := handoffBase()
	ts.RT[0].WCET = 15
	return ts
}

func admitAll(t *testing.T, sess *hydrac.Session, from, to int) *hydrac.Report {
	t.Helper()
	var rep *hydrac.Report
	for k := from; k < to; k++ {
		r, admitted, err := sess.Admit(context.Background(), memoryDelta(k))
		if err != nil || !admitted {
			t.Fatalf("delta %d: admitted=%v err=%v", k, admitted, err)
		}
		rep = r
	}
	return rep
}

func admitVia(t *testing.T, st *Store, id string, from, to int) *hydrac.Report {
	t.Helper()
	sess, release, err := st.Acquire(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return admitAll(t, sess, from, to)
}

func encodeReport(t *testing.T, rep *hydrac.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The memory store's live set is exact: the least recently used
// session beyond maxLive is dropped, logged, and answers ErrEvicted —
// distinct from ErrNotFound for an id that never existed.
func TestMemoryEvictionAnswersErrEvicted(t *testing.T) {
	ctx := context.Background()
	var logs bytes.Buffer
	st := NewMemory(handoffAnalyzer(t), 2, func(format string, args ...any) { fmt.Fprintf(&logs, format+"\n", args...) })
	defer st.Close()
	if st.Durable() {
		t.Fatal("memory store reports durable")
	}
	for _, id := range []string{"s1", "s2", "s3"} {
		if _, err := st.Create(ctx, id, handoffBase()); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Acquire(ctx, "s1"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted session: %v, want ErrEvicted", err)
	}
	if _, _, err := st.Acquire(ctx, "never"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: %v, want ErrNotFound", err)
	}
	if st.Has("s1") || st.Len() != 2 {
		t.Fatalf("Has(s1)=%v Len=%d, want false and 2", st.Has("s1"), st.Len())
	}
	for _, id := range []string{"s2", "s3"} {
		if !bytes.Equal(sessionBytes(t, st, id), encodeSet(t, handoffBase())) {
			t.Fatalf("live session %s changed", id)
		}
	}
	if !strings.Contains(logs.String(), "s1 evicted") {
		t.Fatalf("eviction not logged: %q", logs.String())
	}
}

// Concurrent creates and acquires against a tiny live window: every
// acquire serves or answers ErrEvicted (ErrNotFound for an id not yet
// created), and once the churn settles the store holds exactly
// maxLive sessions, each of which serves.
func TestMemoryConcurrentChurnKeepsCapExact(t *testing.T) {
	ctx := context.Background()
	const maxLive, workers, rounds = 3, 4, 16
	st := NewMemory(handoffAnalyzer(t), maxLive, nil)
	defer st.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				id := fmt.Sprintf("w%d-%d", w, k)
				if _, err := st.Create(ctx, id, handoffBase()); err != nil {
					t.Error(err)
					return
				}
				for _, other := range []string{id, fmt.Sprintf("w%d-%d", (w+1)%workers, k)} {
					sess, release, err := st.Acquire(ctx, other)
					switch {
					case err == nil:
						sess.Set()
						release()
					case errors.Is(err, ErrEvicted), errors.Is(err, ErrNotFound):
					default:
						t.Errorf("Acquire(%s): %v", other, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != maxLive {
		t.Fatalf("store holds %d sessions after churn, want exactly %d", st.Len(), maxLive)
	}
	for _, id := range st.IDs() {
		_, release, err := st.Acquire(ctx, id)
		if err != nil {
			t.Fatalf("held session %s: %v", id, err)
		}
		release()
	}
}

// An import whose delta fails to replay — undecodable, or denied on
// re-admission — fails and leaves no entry, so the id stays free.
func TestMemoryImportReplayFailureLeavesNoEntry(t *testing.T) {
	ctx := context.Background()
	st := NewMemory(handoffAnalyzer(t), 4, nil)
	defer st.Close()
	var crusher bytes.Buffer
	if err := hydrac.EncodeDelta(&crusher, &hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
		Name: "crusher", WCET: 190, MaxPeriod: 200, Core: -1, Priority: 9,
	}}}); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string][]byte{"undecodable": []byte("not a delta"), "denied": crusher.Bytes()} {
		exp := Export{Set: encodeSet(t, handoffBase()), Deltas: [][]byte{rec}}
		if err := st.Import(ctx, "sess", exp, "tok"); err == nil {
			t.Fatalf("%s delta: import accepted", name)
		}
		if st.Has("sess") || st.Len() != 0 || st.ImportedWith("sess", "tok") {
			t.Fatalf("%s delta: failed import left an entry or a commit record", name)
		}
		if _, _, err := st.Acquire(ctx, "sess"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s delta: Acquire after failed import: %v, want ErrNotFound", name, err)
		}
	}
	if err := st.Import(ctx, "sess", Export{Set: encodeSet(t, handoffBase())}, "tok"); err != nil {
		t.Fatalf("import after failed attempts: %v", err)
	}
}

// A retried import carrying the committed token is acknowledged, a
// different token conflicts, and the commit record follows the
// session: it survives the session moving onward and goes with an
// eviction, after which the sender rightly keeps its own copy.
func TestMemoryImportIdempotentWithToken(t *testing.T) {
	ctx := context.Background()
	st := NewMemory(handoffAnalyzer(t), 1, nil)
	defer st.Close()
	exp := Export{Set: encodeSet(t, handoffBase())}
	if err := st.Import(ctx, "a", exp, "tok-a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Import(ctx, "a", exp, "tok-a"); err != nil {
		t.Fatalf("retried import with matching token: %v, want nil", err)
	}
	if err := st.Import(ctx, "a", exp, "tok-other"); !errors.Is(err, ErrExists) {
		t.Fatalf("import with mismatched token: %v, want ErrExists", err)
	}
	if !st.ImportedWith("a", "tok-a") || st.ImportedWith("a", "tok-other") {
		t.Fatal("ImportedWith disagrees with the committed token")
	}
	if err := st.Detach(ctx, "a", func(Export) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !st.ImportedWith("a", "tok-a") {
		t.Error("ImportedWith after onward detach = false")
	}

	if err := st.Import(ctx, "b", exp, "tok-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(ctx, "c", handoffBase()); err != nil { // evicts b
		t.Fatal(err)
	}
	if st.ImportedWith("b", "tok-b") {
		t.Error("ImportedWith vouches for an evicted session")
	}
}

// A memory session detached into a durable store arrives byte-identical
// and answers its next delta exactly as an uninterrupted twin would,
// placement cursor included; the sender then answers ErrMoved.
func TestMemoryDetachIntoDurableBitIdentical(t *testing.T) {
	ctx := context.Background()
	a, err := hydrac.New(hydrac.WithHeuristic(hydrac.NextFit))
	if err != nil {
		t.Fatal(err)
	}
	src := NewMemory(a, 4, nil)
	defer src.Close()
	dst, err := Open(t.TempDir(), a, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	twin, _, err := a.NewSession(ctx, memoryBase())
	if err != nil {
		t.Fatal(err)
	}

	const id = "sess-move"
	if _, err := src.Create(ctx, id, memoryBase()); err != nil {
		t.Fatal(err)
	}
	admitVia(t, src, id, 0, 4)
	admitAll(t, twin, 0, 4)
	if twin.PlacementCursor() == 0 {
		t.Fatal("delta sequence left the placement cursor at 0; the test cannot see it dropped")
	}
	before := sessionBytes(t, src, id)

	if err := src.Detach(ctx, id, func(exp Export) error {
		if len(exp.Deltas) != 0 {
			t.Errorf("memory export carries %d deltas, want none", len(exp.Deltas))
		}
		return dst.Import(ctx, id, exp, "tok")
	}); err != nil {
		t.Fatal(err)
	}
	if got := sessionBytes(t, dst, id); !bytes.Equal(got, before) {
		t.Fatalf("imported set differs:\ngot  %s\nwant %s", got, before)
	}
	if got, want := encodeReport(t, admitVia(t, dst, id, 4, 9)), encodeReport(t, admitAll(t, twin, 4, 9)); !bytes.Equal(got, want) {
		t.Fatalf("next reports differ from the twin's:\ngot  %s\nwant %s", got, want)
	}
	if _, _, err := src.Acquire(ctx, id); !errors.Is(err, ErrMoved) {
		t.Fatalf("sender after handoff: %v, want ErrMoved", err)
	}
}

// A failed transfer leaves a memory session live and unchanged — its
// state exists nowhere else — and a later handoff still succeeds.
func TestMemoryDetachTransferFailureKeepsServing(t *testing.T) {
	ctx := context.Background()
	st := NewMemory(handoffAnalyzer(t), 4, nil)
	defer st.Close()
	const id = "sess-keep"
	if _, err := st.Create(ctx, id, handoffBase()); err != nil {
		t.Fatal(err)
	}
	admitVia(t, st, id, 0, 2)
	before := sessionBytes(t, st, id)

	boom := errors.New("receiver exploded")
	if err := st.Detach(ctx, id, func(Export) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Detach error = %v, want wrapped transfer error", err)
	}
	if got := sessionBytes(t, st, id); !bytes.Equal(got, before) {
		t.Fatal("session state changed after failed handoff")
	}
	admitVia(t, st, id, 2, 3)
	if err := st.Detach(ctx, id, func(Export) error { return nil }); err != nil {
		t.Fatalf("second Detach: %v", err)
	}
}

// A memory store's entries have no directory, and nothing may build a
// path from one: every operation leaves the working directory empty.
// Not parallel: it changes the process's working directory.
func TestMemoryStoreWritesNothing(t *testing.T) {
	ctx := context.Background()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	st := NewMemory(handoffAnalyzer(t), 2, nil)
	for _, id := range []string{"s1", "s2", "s3"} { // s1 is evicted
		if _, err := st.Create(ctx, id, handoffBase()); err != nil {
			t.Fatal(err)
		}
	}
	admitVia(t, st, "s3", 0, 3)
	if _, _, err := st.Acquire(ctx, "s1"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted session: %v, want ErrEvicted", err)
	}
	exp := Export{Set: encodeSet(t, handoffBase())}
	if err := st.Import(ctx, "imp", exp, "tok"); err != nil {
		t.Fatal(err)
	}
	if err := st.Import(ctx, "imp", exp, "tok"); err != nil {
		t.Fatal(err)
	}
	st.ImportedWith("imp", "tok")
	st.ImportedWith("s3", "tok")
	_ = st.Import(ctx, "bad", Export{Set: exp.Set, Deltas: [][]byte{[]byte("x")}}, "tok")
	_ = st.Detach(ctx, "s3", func(Export) error { return errors.New("no") })
	if err := st.Detach(ctx, "s3", func(Export) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st.Probe(ctx)
	st.Health()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("memory store wrote %q into the working directory", e.Name())
	}
}
