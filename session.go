package hydrac

import (
	"context"
	"io"

	"hydrac/internal/admit"
	"hydrac/internal/task"
)

// Delta is one incremental admission request against a live session:
// removals by name, then additions, in one atomic step. See the
// documentation on the underlying type for the defaulting rules (added
// tasks must carry explicit priorities).
type Delta = task.Delta

// DecodeDelta reads one delta from its JSON wire format (the body of
// POST /v1/session/{id}/admit).
func DecodeDelta(r io.Reader) (*Delta, error) { return task.DecodeDelta(r) }

// EncodeDelta writes one delta as indented JSON.
func EncodeDelta(w io.Writer, d *Delta) error { return task.EncodeDelta(w, d) }

// DecodeDeltaLog reads a JSON array of deltas — the replay format of
// `hydrac admit -deltas`.
func DecodeDeltaLog(r io.Reader) ([]Delta, error) { return task.DecodeDeltaLog(r) }

// EncodeDeltaLog writes a delta sequence in the format DecodeDeltaLog
// reads.
func EncodeDeltaLog(w io.Writer, ds []Delta) error { return task.EncodeDeltaLog(w, ds) }

// Session is a live admission session: an analysed task set that
// absorbs deltas incrementally. Where Analyze re-runs the full
// pipeline per request, a session re-derives only what each delta can
// affect (memoized per-core RT fixpoints, two-probe verification of
// surviving periods) and falls back to the full search task by task
// when verification fails — so every report is byte-identical to a
// cold Analyze of the same set, just cheaper to produce.
//
// Sessions are safe for concurrent use: deltas serialize in arrival
// order, and the commit hook (SetCommitHook) sees that order for
// deterministic replay.
//
// A session's reports always describe its own placed set: RT tasks
// arriving unassigned are placed at session creation (heuristic
// placement is recorded in the RT assignments, not in the Heuristic
// field), and incoming unassigned RT tasks are placed one at a time
// without moving admitted tasks.
type Session struct {
	a   *Analyzer
	eng *admit.Engine
}

// SessionConfig carries restoration state for sessions that resume a
// previous life — the durable session store (internal/store) recovers
// a session by replaying its persisted delta log over a snapshot and
// needs the engine-internal placement cursor restored alongside the
// set, so post-recovery placements are byte-identical to the
// never-restarted session's.
type SessionConfig struct {
	// NextFitCursor seeds the next-fit placement rotation; zero for
	// fresh sessions. Pair it with the PlacementCursor of the session
	// whose state is being restored.
	NextFitCursor int
	// Hints maps security-task name → the period the restored state
	// was committed with (see CommitHook). They seed the first
	// analysis and are advisory: each is verified minimal with two
	// feasibility probes before use, so a stale, missing or wrong
	// entry costs a search, never a different report. Exact hints turn
	// the initial period search into verification.
	Hints map[string]Time
}

// CommitHook observes every committed delta of a session: it runs
// under the session's serialization lock after a delta is admitted
// but BEFORE it is installed, and an error aborts the commit, leaving
// the session unchanged. That ordering lets a persistence layer make
// "committed" imply "durable": append-and-fsync in the hook, and no
// acknowledged delta can be lost to a crash. state is the set as it
// will be once installed and cursor the matching placement cursor;
// periods are its selected periods aligned with state.Security, nil
// when state is unschedulable — what SessionConfig.Hints restores.
// d is the committed delta (for Update, with its implied removals)
// and shares its slices with the delta the caller passed in;
// replaying the hook's deltas in order over the session's base
// reproduces its committed state. The hook must not retain state or
// periods (both engine-owned) or call back into the session.
type CommitHook func(d Delta, state *TaskSet, cursor int, periods []Time) error

// NewSession opens a session over base and returns the initial
// report. The base set is committed even when its security band is
// unschedulable — it describes the system as it already runs; an RT
// band infeasible under Eq. 1 is an error, as in Analyze.
func (a *Analyzer) NewSession(ctx context.Context, base *TaskSet) (*Session, *Report, error) {
	return a.NewSessionWith(ctx, base, SessionConfig{})
}

// NewSessionWith is NewSession with restoration state; see
// SessionConfig.
func (a *Analyzer) NewSessionWith(ctx context.Context, base *TaskSet, cfg SessionConfig) (*Session, *Report, error) {
	eng, out, err := admit.New(ctx, base, admit.Config{
		Opts:          a.opts,
		Heuristic:     a.heuristic,
		NextFitCursor: cfg.NextFitCursor,
		Hints:         cfg.Hints,
	})
	if err != nil {
		return nil, nil, err
	}
	s := &Session{a: a, eng: eng}
	rep, err := s.report(ctx, out)
	if err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}

// SetCommitHook installs the session's commit hook (see CommitHook).
// Set it before the session is shared across goroutines: the durable
// store attaches it between recovery replay (which must not re-log
// the deltas being replayed) and serving.
func (s *Session) SetCommitHook(f CommitHook) {
	s.eng.SetOnCommit(f)
}

// PlacementCursor returns the committed state's next-fit placement
// cursor — the value a recovered successor must restore through
// SessionConfig for post-recovery placements to match this session's.
func (s *Session) PlacementCursor() int { return s.eng.Cursor() }

// Admit applies one delta. The returned report describes the set with
// the delta applied; admitted reports whether the delta was COMMITTED
// — false means the admission was denied (the security band would be
// unschedulable) and the session state is unchanged. Removal-only
// deltas always commit: removals never worsen schedulability, and the
// report of a removal from a still-unschedulable base is committed
// with Schedulable == false, which is why callers must branch on
// admitted, not on Report.Schedulable. Errors — unknown names,
// infeasible RT placements, validation failures — also leave the
// state unchanged.
func (s *Session) Admit(ctx context.Context, d Delta) (rep *Report, admitted bool, err error) {
	out, err := s.eng.Apply(ctx, d)
	if err != nil {
		return nil, false, err
	}
	rep, err = s.report(ctx, out)
	if err != nil {
		return nil, false, err
	}
	return rep, out.Admitted, nil
}

// Remove drops the named tasks. It always commits when every name
// exists (see Admit).
func (s *Session) Remove(ctx context.Context, names ...string) (*Report, bool, error) {
	return s.Admit(ctx, Delta{Remove: names})
}

// Update replaces the named tasks atomically: every added task whose
// name already exists is removed first, in the same delta. A task in
// d.AddRT or d.AddSecurity whose name is NOT yet admitted is an error
// — use Admit for genuinely new tasks. The existence check and the
// replacement are one atomic step under the engine lock.
func (s *Session) Update(ctx context.Context, d Delta) (*Report, bool, error) {
	out, err := s.eng.Update(ctx, d)
	if err != nil {
		return nil, false, err
	}
	rep, err := s.report(ctx, out)
	if err != nil {
		return nil, false, err
	}
	return rep, out.Admitted, nil
}

// Set returns a copy of the committed task set (fully placed).
func (s *Session) Set() *TaskSet { return s.eng.Snapshot() }

// report shapes an engine outcome with the Analyzer's shared report
// builder, so baselines and simulation configured on the Analyzer
// appear here exactly as in a cold Analyze. Like batch reports,
// session reports carry no Timing and never set FromCache — they must
// be byte-identical to the canonical report of the same set.
func (s *Session) report(ctx context.Context, out *admit.Outcome) (*Report, error) {
	rep, err := s.a.buildReport(ctx, out.Set, out.Result, "", out.Set.Hash(), &Timing{}, nil)
	if err != nil {
		return nil, err
	}
	return rep, nil
}
