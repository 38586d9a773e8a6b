// Package store is the session tier of hydrad: a lifecycle manager
// for admission sessions (hydrac.Session) with two modes behind one
// API. A durable store (Open) gives every session a directory of
// snapshot + write-ahead-log state and recovers all of them by replay
// on boot; a memory store (NewMemory) keeps sessions in memory only
// and loses the ones its live LRU evicts. Durability rides on the
// engine's own semantics — the commit hook sees every committed delta
// in commit order, and replaying those deltas through a fresh engine
// is deterministic and oracle-pinned — so recovery is bit-identical
// by construction: a recovered session re-analyses the same placed
// set through the same equations and must produce byte-identical
// reports, which the crash-injection tests assert against
// uninterrupted sessions.
//
// Per-session on-disk layout (<root>/<id>/):
//
//	snap-<gen>.json   snapshot: placed task set + placement cursor
//	                  (+ its committed periods, when schedulable)
//	g<gen>-NNNNNNNN.wal  CRC-framed segments of committed deltas
//
// The snapshot's periods are recovery hints: the re-analysis of the
// snapshot set verifies each one minimal with two feasibility probes
// instead of searching for it again, and a missing or wrong period
// only costs that search (core.Hints), so the hints make recovery
// faster without making it different. Open recovers sessions in
// parallel, one GOMAXPROCS-sized chunk at a time, and still fills the
// live set in directory order.
//
// Commit ordering: the session's commit hook appends the delta to the
// WAL (and fsyncs) BEFORE the engine installs the new state, so an
// acknowledged commit is always on disk; a crash between append and
// acknowledgement replays a delta the client never heard about, which
// is harmless — replay converges on the same committed state. Every
// CompactEvery commits the hook writes a fresh snapshot of the
// post-delta state and rotates to a new WAL generation; recovery
// always loads the highest generation with a valid snapshot, so a
// crash anywhere inside compaction leaves either the old or the new
// generation whole.
//
// A memory store's entries have no directory, and nothing builds a
// path from one: sessions are created and imported without snapshot,
// WAL or hook, and an evicted id answers ErrEvicted while a bounded
// tombstone list remembers it.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hydrac"
	"hydrac/internal/faultfs"
	"hydrac/internal/lru"
	"hydrac/internal/rta"
	"hydrac/internal/wal"
)

// ErrNotFound reports an id with no session on disk or in memory.
var ErrNotFound = errors.New("store: no such session")

// ErrEvicted reports an id a memory store held until its live LRU
// evicted it: the session existed, but its state is gone.
var ErrEvicted = errors.New("store: session was evicted from the in-memory store")

// ErrExists reports a Create of an id that already has a session.
var ErrExists = errors.New("store: session already exists")

// ErrStorage marks commit failures caused by the persistence layer
// (WAL append, rotation) rather than by the admission input — callers
// surface these as server faults, not client errors.
var ErrStorage = errors.New("store: storage failure")

// ErrDegraded marks mutations rejected because the session is in
// degraded read-only mode: an earlier storage fault (failed fsync,
// compaction that lost its log) means new commits could not be made
// durable, so they are refused outright while reads keep working.
// Wraps ErrStorage, so errors.Is(err, ErrStorage) still holds; a
// background probe (or an explicit Probe call) re-arms the session
// from disk once the storage heals. Callers surface this as 503, not
// 500: the condition is expected to clear.
var ErrDegraded = fmt.Errorf("%w: degraded", ErrStorage)

// DefaultMaxLive bounds materialised engines when Options.MaxLive is
// unset: live sessions hold analysed state and kernel scratch, so the
// store keeps a bounded working set warm and re-hydrates the rest
// from disk on demand.
const DefaultMaxLive = 256

// DefaultCompactEvery is the WAL record count that triggers a
// snapshot + log rotation.
const DefaultCompactEvery = 256

// DefaultProbeEvery is the background re-arm interval for degraded
// sessions: long enough that a genuinely sick disk is not hammered,
// short enough that a transient hiccup (full disk freed, remount)
// clears without operator action.
const DefaultProbeEvery = 5 * time.Second

// Options tunes a Store.
type Options struct {
	// MaxLive bounds live engines (LRU); <= 0 means DefaultMaxLive.
	// Evicted sessions stay fully recoverable on disk.
	MaxLive int
	// NoSync disables the per-commit fsync: commits are durable only
	// against process crashes (the OS holds the bytes), not power
	// loss. For benchmarks and tests; production keeps it false.
	NoSync bool
	// CompactEvery rotates a session's WAL into a fresh snapshot +
	// empty log once it holds this many records; <= 0 means
	// DefaultCompactEvery.
	CompactEvery int
	// SegmentBytes is the WAL segment size; <= 0 uses the WAL default.
	SegmentBytes int64
	// ProbeEvery is how often a background goroutine attempts to
	// re-arm degraded sessions from disk; 0 means DefaultProbeEvery,
	// negative disables the loop (tests drive Probe directly).
	ProbeEvery time.Duration
	// FS is the filesystem seam snapshots and WALs write through; nil
	// means the real OS. The chaos suite injects faults here.
	FS faultfs.FS
	// Logf receives operational messages (compaction failures, cleanup
	// of half-created sessions); nil is quiet.
	Logf func(format string, args ...any)
}

// Store manages sessions: durable ones under one root directory, or
// in-memory ones when the directory is empty (NewMemory). All methods
// are safe for concurrent use.
//
// Lock order: the live-set LRU is always taken before a session
// entry's lock, and entry lock holders never call back into the LRU —
// commit hooks run under an entry read lock and touch only that
// entry's WAL. s.mu and entry locks never nest. A memory store's
// eviction takes s.mu under the LRU lock (after the entry lock is
// released again); nothing takes the LRU under s.mu.
type Store struct {
	dir string // empty for a memory store
	a   *hydrac.Analyzer
	opt Options
	fs  faultfs.FS

	mu      sync.Mutex
	closed  bool
	entries map[string]*entry
	// movedIDs tombstones sessions handed off to another node
	// (Detach): Acquire answers ErrMoved for them so the HTTP layer
	// redirects instead of 404ing. In-memory only — after a restart
	// the id is simply absent, which is equally true.
	movedIDs map[string]struct{}
	// importTokens remembers the handoff token each imported session
	// arrived with, so a retried import can be told apart from a
	// genuine id conflict and the sender's confirm probe can be
	// answered. Entries survive a Detach — "your handoff committed
	// here" stays true after the session moves on — and reload lazily
	// from the session dir's token file after a restart.
	importTokens map[string]string
	// live keeps the most recently used entries materialised; eviction
	// closes the entry's engine + WAL handle, leaving disk state as
	// the only copy.
	live *lru.Cache[string, *entry]
	// evicted tombstones the ids a memory store's LRU dropped, so
	// Acquire can answer ErrEvicted instead of ErrNotFound. Nil (never
	// hits) for a durable store, whose evicted sessions stay on disk.
	evicted *lru.Cache[string, struct{}]

	// stop/wg manage the background degraded-session probe loop.
	stop chan struct{}
	wg   sync.WaitGroup
}

// entry is one session's lifecycle state. sess/wal/gen are guarded by
// mu: operations hold the read lock (hooks included), while eviction
// and re-hydration hold the write lock, so a session is never torn
// down mid-request and never materialised twice.
type entry struct {
	id  string
	dir string // empty in a memory store

	// token is the handoff token a memory session was imported with,
	// empty for local creations; a durable session keeps it in its
	// token file instead. Guarded by mu.
	token string

	mu   sync.RWMutex
	sess *hydrac.Session
	wal  *wal.Log
	gen  uint64
	// moved marks a session handed off to another node (Detach): its
	// disk state is gone and Acquire answers ErrMoved so the HTTP
	// layer can redirect to the new owner instead of 404ing.
	moved bool

	// degMu guards the degraded state separately from mu, because the
	// commit hook (which marks it) runs with mu read-held while the
	// probe loop and health reads inspect it from outside. degraded
	// non-nil means the session is read-only: an earlier storage fault
	// left the live WAL unusable (failed append) or superseded (failed
	// rotation), so further commits would be lost — they are refused
	// with ErrDegraded until a re-hydration from disk re-arms the
	// entry. Reads stay served from the committed in-memory state,
	// which the aborted commit never touched.
	degMu    sync.Mutex
	degraded error
	degSince time.Time
}

// fault returns the entry's degradation, or nil when healthy.
func (e *entry) fault() error {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	return e.degraded
}

// markDegraded flips the entry read-only. The first fault wins: a
// probe failure must not overwrite the root cause with its own.
func (e *entry) markDegraded(err error) {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	if e.degraded == nil {
		e.degraded, e.degSince = err, time.Now()
	}
}

func (e *entry) clearDegraded() {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	e.degraded, e.degSince = nil, time.Time{}
}

// Open loads the store rooted at dir, creating it if absent, and
// recovers every session on disk by replay — each session's latest
// valid snapshot is re-analysed and its WAL deltas re-admitted
// through a fresh engine, repairing torn WAL tails along the way. A
// session that fails recovery fails Open: serving a partial fleet
// would silently drop committed admission state.
func Open(dir string, a *hydrac.Analyzer, opt Options) (*Store, error) {
	if opt.MaxLive <= 0 {
		opt.MaxLive = DefaultMaxLive
	}
	if opt.CompactEvery <= 0 {
		opt.CompactEvery = DefaultCompactEvery
	}
	if opt.ProbeEvery == 0 {
		opt.ProbeEvery = DefaultProbeEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	s := newStore(dir, a, opt)
	s.live.OnEvict(func(id string, e *entry) { e.close() })

	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning root: %w", err)
	}
	var found []*entry // directory (sorted) order
	for _, de := range dirents {
		if !de.IsDir() {
			continue
		}
		id := de.Name()
		if !validID(id) {
			s.logf("store: ignoring non-session directory %q", id)
			continue
		}
		e := s.newEntry(id)
		if !hasSnapshot(e.dir) {
			// A crash between mkdir and the first snapshot write: the
			// session never existed durably. Clean it up.
			s.logf("store: removing half-created session %s", id)
			_ = os.RemoveAll(e.dir)
			continue
		}
		found = append(found, e)
	}
	if err := s.recoverAll(found); err != nil {
		return nil, err
	}
	if opt.ProbeEvery > 0 {
		s.wg.Add(1)
		go s.probeLoop()
	}
	return s, nil
}

// NewMemory returns a store whose sessions live in memory only: it has
// no directory, and sessions are created and imported with no
// snapshot, WAL or commit hook. Its live LRU holds exactly maxLive
// sessions (<= 0 means DefaultMaxLive); evicting one loses it, and
// its id answers ErrEvicted while a tombstone LRU of max(4×maxLive,
// 1024) ids remembers it — the client only needs that answer until it
// notices and re-creates. Re-hydrating instead would mean keeping
// every session's state, unbounded because nothing deletes sessions.
// logf (nil is quiet) receives one line per eviction.
func NewMemory(a *hydrac.Analyzer, maxLive int, logf func(format string, args ...any)) *Store {
	if maxLive <= 0 {
		maxLive = DefaultMaxLive
	}
	s := newStore("", a, Options{MaxLive: maxLive, Logf: logf})
	s.evicted = lru.New[string, struct{}](max(4*maxLive, 1024))
	s.live.OnEvict(s.forget)
	return s
}

func newStore(dir string, a *hydrac.Analyzer, opt Options) *Store {
	return &Store{
		dir: dir, a: a, opt: opt, fs: faultfs.Default(opt.FS),
		entries: map[string]*entry{}, movedIDs: map[string]struct{}{}, importTokens: map[string]string{},
		live: lru.New[string, *entry](opt.MaxLive),
		stop: make(chan struct{}),
	}
}

// newEntry returns a fresh entry for id; a memory store's has no
// directory.
func (s *Store) newEntry(id string) *entry {
	e := &entry{id: id}
	if s.dir != "" {
		e.dir = filepath.Join(s.dir, id)
	}
	return e
}

// forget is a memory store's eviction: the session's state is gone, so
// its entry leaves the store, its import token with it (a sender
// asking about it then rightly keeps its copy), and its id is
// tombstoned. Runs under the live LRU's lock.
func (s *Store) forget(id string, e *entry) {
	e.close()
	s.mu.Lock()
	held := s.entries[id] == e
	if held {
		delete(s.entries, id)
		delete(s.importTokens, id)
	}
	s.mu.Unlock()
	if !held { // handed off already
		return
	}
	s.evicted.Add(id, struct{}{})
	s.logf("store: session %s evicted from the in-memory store; its state is lost (run with -data-dir to make sessions durable)", id)
}

// recoverAll re-hydrates found (in directory order) in chunks of
// GOMAXPROCS sessions recovered in parallel. Each chunk enters the
// entry map and the live LRU in directory order, exactly as a serial
// loop would add them, so the live set is the same and at most
// MaxLive + one chunk of engines is ever materialised. The error names
// the first failing session in directory order — the one the serial
// loop would have stopped at — and every engine recovered so far is
// closed again.
func (s *Store) recoverAll(found []*entry) error {
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	for start := 0; start < len(found); start += workers {
		chunk := found[start:min(start+workers, len(found))]
		rta.ParallelFor(len(chunk), workers, func(i int) {
			e := chunk[i]
			e.mu.Lock()
			errs[i] = s.rehydrate(ctx, e)
			e.mu.Unlock()
		})
		for i, e := range chunk {
			if errs[i] != nil {
				for _, e := range found[:start+len(chunk)] {
					e.close()
				}
				return fmt.Errorf("store: recovering session %s: %w", e.id, errs[i])
			}
			s.entries[e.id] = e
			// The LRU caps how many recovered engines stay warm;
			// evicted ones were still verified by the replay above.
			s.live.Add(e.id, e)
		}
	}
	return nil
}

// probeLoop periodically re-arms degraded sessions until Close.
func (s *Store) probeLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if rearmed, still := s.Probe(context.Background()); rearmed > 0 || still > 0 {
				s.logf("store: probe re-armed %d degraded sessions, %d still degraded", rearmed, still)
			}
		}
	}
}

// Probe attempts to re-arm every degraded session NOW: each one's live
// state is torn down and re-hydrated from disk (latest snapshot + WAL
// replay, the same path a restart takes), which both verifies the
// storage is healthy again and restores the exact committed state —
// the aborted commits that degraded the session were never installed
// in memory or on disk, so the re-hydrated session is bit-identical
// to the committed history. Returns how many sessions were re-armed
// and how many remain degraded. The background loop calls this every
// ProbeEvery; tests and operators can call it directly.
func (s *Store) Probe(ctx context.Context) (rearmed, degraded int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0
	}
	var sick []*entry
	for _, e := range s.entries {
		if e.fault() != nil {
			sick = append(sick, e)
		}
	}
	s.mu.Unlock()
	for _, e := range sick {
		// Lock order: live LRU before the entry lock.
		s.live.Add(e.id, e)
		e.mu.Lock()
		if e.fault() == nil { // raced with another probe or rehydration
			e.mu.Unlock()
			continue
		}
		// Stage the replacement BEFORE tearing anything down: while the
		// disk is still sick the old (degraded but readable) state must
		// keep serving reads, so a failed probe leaves it untouched.
		sess, l, gen, stale, err := s.loadFromDisk(ctx, e)
		if err != nil {
			e.mu.Unlock()
			s.logf("store: session %s still degraded after probe: %v", e.id, err)
			degraded++
			continue
		}
		if e.wal != nil {
			_ = e.wal.Close()
		}
		s.install(e, sess, l, gen, stale)
		e.mu.Unlock()
		s.logf("store: session %s re-armed from disk after degradation", e.id)
		rearmed++
	}
	return rearmed, degraded
}

// Health summarises the store's storage state for /healthz: how many
// sessions are currently degraded (read-only) and one representative
// reason.
type Health struct {
	// Sessions is the total session count (live or not).
	Sessions int
	// Degraded counts sessions refusing mutations.
	Degraded int
	// Reason is one degraded session's fault, empty when healthy.
	Reason string
	// Since is the oldest degradation's start time.
	Since time.Time
}

// OK reports whether every session accepts mutations.
func (h Health) OK() bool { return h.Degraded == 0 }

// Durable reports whether sessions outlive the process (Open) rather
// than living in memory only (NewMemory).
func (s *Store) Durable() bool { return s.dir != "" }

// Health reports the store's current storage health.
func (s *Store) Health() Health {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	h := Health{Sessions: len(entries)}
	for _, e := range entries {
		e.degMu.Lock()
		if e.degraded != nil {
			h.Degraded++
			if h.Reason == "" || e.degSince.Before(h.Since) {
				h.Reason = e.degraded.Error()
				h.Since = e.degSince
			}
		}
		e.degMu.Unlock()
	}
	return h
}

// Len returns the number of sessions the store holds (live or not).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Has reports whether the store currently holds id (live or cold on
// disk). A handed-off session is not held.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

// IDs returns every session id, sorted.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Create opens a new session over base: the session is analysed
// first (an infeasible base never touches disk), then — in a durable
// store — its placed set and cursor are snapshotted and an empty WAL
// generation is created, and only then is the commit hook attached.
// Returns the initial report.
func (s *Store) Create(ctx context.Context, id string, base *hydrac.TaskSet) (*hydrac.Report, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: invalid session id %q (want 1-128 chars of [a-zA-Z0-9_-])", id)
	}
	e := s.newEntry(id)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("store: closed")
	}
	if _, ok := s.entries[id]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	s.entries[id] = e
	s.mu.Unlock()

	e.mu.Lock()
	rep, err := s.createLocked(ctx, e, base)
	e.mu.Unlock()
	if err != nil {
		s.abandon(e)
		return nil, err
	}
	s.live.Add(id, e)
	return rep, nil
}

// abandon undoes a failed Create or Import: the id leaves the store
// and a durable entry's half-written directory is removed.
func (s *Store) abandon(e *entry) {
	s.mu.Lock()
	delete(s.entries, e.id)
	s.mu.Unlock()
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// createLocked is the body of Create; e.mu must be write-held. Disk
// failures are wrapped in ErrStorage — the base set was fine, the
// storage was not — so the HTTP layer answers 503, not 422.
func (s *Store) createLocked(ctx context.Context, e *entry, base *hydrac.TaskSet) (*hydrac.Report, error) {
	sess, rep, err := s.a.NewSession(ctx, base)
	if err != nil {
		return nil, err
	}
	if e.dir == "" {
		e.sess = sess
		return rep, nil
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	var periods map[string]hydrac.Time
	if rep.Schedulable {
		periods = make(map[string]hydrac.Time, len(rep.Tasks))
		for _, t := range rep.Tasks {
			periods[t.Name] = t.Period
		}
	}
	if err := writeSnapshot(s.fs, e.dir, 0, sess.Set(), sess.PlacementCursor(), periods); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	l, _, err := wal.Open(e.dir, s.walOptions(0))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	e.sess, e.wal, e.gen = sess, l, 0
	sess.SetCommitHook(s.hookFor(e))
	return rep, nil
}

// Acquire returns the live session for id, re-hydrating it from disk
// if a durable store evicted it, plus a release func the caller must
// invoke once done with THIS operation. The handle is valid only
// until release: holding it longer would race with eviction. A
// memory store answers ErrEvicted for a session its LRU dropped.
func (s *Store) Acquire(ctx context.Context, id string) (*hydrac.Session, func(), error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, errors.New("store: closed")
	}
	e := s.entries[id]
	_, wasMoved := s.movedIDs[id]
	s.mu.Unlock()
	if e == nil {
		if wasMoved {
			return nil, nil, fmt.Errorf("%w: %s", ErrMoved, id)
		}
		if _, ok := s.evicted.Get(id); ok {
			return nil, nil, fmt.Errorf("%w: %s", ErrEvicted, id)
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !s.touch(e) {
		return nil, nil, fmt.Errorf("%w: %s", ErrEvicted, id)
	}
	for {
		e.mu.RLock()
		if e.moved {
			e.mu.RUnlock()
			return nil, nil, fmt.Errorf("%w: %s", ErrMoved, id)
		}
		if e.sess != nil {
			sess := e.sess
			return sess, e.mu.RUnlock, nil
		}
		e.mu.RUnlock()
		e.mu.Lock()
		var err error
		switch {
		case e.moved:
			err = fmt.Errorf("%w: %s", ErrMoved, id)
		case e.sess == nil:
			err = s.rehydrate(ctx, e)
		}
		e.mu.Unlock()
		if err != nil {
			if errors.Is(err, ErrMoved) || errors.Is(err, ErrEvicted) {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("store: re-hydrating session %s: %w", id, err)
		}
		// Loop: an eviction storm could tear the session down again
		// between the Unlock and the RLock above.
	}
}

// touch marks e most recently used in the live set (lock order: LRU
// before entry), which may synchronously evict other entries. A cold
// durable entry re-enters the set for the caller to re-hydrate; a
// memory entry the LRU already dropped must not, or it would take a
// live session's slot while holding nothing — touch reports false
// for it.
func (s *Store) touch(e *entry) bool {
	if s.dir != "" {
		s.live.Add(e.id, e)
		return true
	}
	cur, ok := s.live.Get(e.id)
	return ok && cur == e
}

// Close flushes and closes every live session. The store must not be
// used afterwards. With per-commit fsync (the default) there is
// nothing buffered to lose even without Close; it exists so graceful
// shutdown releases file handles and flushes NoSync stores.
func (s *Store) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.stop)
		s.wg.Wait()
	}
	for _, e := range entries {
		e.close()
	}
	return nil
}

// close tears down the entry's live state (engine + WAL handle). Disk
// state remains authoritative; a later Acquire re-hydrates.
func (e *entry) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		_ = e.wal.Close()
	}
	e.sess, e.wal = nil, nil
}

// rehydrate materialises e from disk: load the latest valid snapshot,
// open (and tail-repair) its WAL generation, re-admit every logged
// delta through a fresh engine, then attach the commit hook — after
// replay, so replayed deltas are not re-logged. e.mu must be
// write-held.
func (s *Store) rehydrate(ctx context.Context, e *entry) error {
	sess, l, gen, stale, err := s.loadFromDisk(ctx, e)
	if err != nil {
		return err
	}
	s.install(e, sess, l, gen, stale)
	return nil
}

// loadFromDisk stages a fresh engine + WAL from e's directory without
// touching e's live fields, so callers (Probe) can keep serving the
// old state when staging fails. e.mu must be write-held (it guards the
// directory against concurrent compaction). A memory entry has no
// directory to load from: once torn down it is evicted for good.
func (s *Store) loadFromDisk(ctx context.Context, e *entry) (*hydrac.Session, *wal.Log, uint64, []uint64, error) {
	if e.dir == "" {
		return nil, nil, 0, nil, fmt.Errorf("%w: %s", ErrEvicted, e.id)
	}
	gen, sf, stale, err := readLatestSnapshot(e.dir)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	set, err := hydrac.DecodeTaskSet(bytes.NewReader(sf.Set))
	if err != nil {
		return nil, nil, 0, nil, fmt.Errorf("decoding snapshot generation %d set: %w", gen, err)
	}
	l, recs, err := wal.Open(e.dir, s.walOptions(gen))
	if err != nil {
		return nil, nil, 0, nil, err
	}
	sess, err := s.replay(ctx, set, sf.NextFit, sf.Periods, recs)
	if err != nil {
		l.Close()
		return nil, nil, 0, nil, err
	}
	return sess, l, gen, stale, nil
}

// replay opens a session over set at cursor and re-admits recs, the
// encoded deltas committed since, in commit order. It is how both
// recovery and handoff import rebuild a session. periods turn the
// set's re-analysis into verification; they are hints, so the session
// is the same with or without them.
func (s *Store) replay(ctx context.Context, set *hydrac.TaskSet, cursor int, periods map[string]hydrac.Time, recs [][]byte) (*hydrac.Session, error) {
	sess, _, err := s.a.NewSessionWith(ctx, set, hydrac.SessionConfig{NextFitCursor: cursor, Hints: periods})
	if err != nil {
		return nil, fmt.Errorf("re-analysing snapshot: %w", err)
	}
	for i, rec := range recs {
		d, err := hydrac.DecodeDelta(bytes.NewReader(rec))
		if err != nil {
			return nil, fmt.Errorf("logged delta %d: %w", i, err)
		}
		_, admitted, err := sess.Admit(ctx, *d)
		if err != nil {
			return nil, fmt.Errorf("replaying logged delta %d: %w", i, err)
		}
		if !admitted {
			// The delta committed when it was logged but is denied
			// now: the analyzer configuration must have drifted (e.g.
			// a different heuristic). Refusing is the only safe move —
			// this state was acknowledged to a client.
			return nil, fmt.Errorf("replay diverged at logged delta %d: it was denied (analyzer configuration changed since this session was written?)", i)
		}
	}
	return sess, nil
}

// install makes a staged session e's live state. e.mu must be
// write-held; any previous live WAL handle must already be closed.
func (s *Store) install(e *entry, sess *hydrac.Session, l *wal.Log, gen uint64, stale []uint64) {
	e.sess, e.wal, e.gen = sess, l, gen
	// A successful re-hydration proves the disk serves reads and a
	// fresh WAL accepts appends again: the session leaves degraded
	// mode (it may never have been in it — this is also the plain
	// eviction re-materialisation path).
	e.clearDegraded()
	sess.SetCommitHook(s.hookFor(e))
	// Older generations are superseded; removing them is cleanup, not
	// correctness (recovery always picks the highest valid snapshot).
	for _, g := range stale {
		s.removeGeneration(e.dir, g)
	}
}

// hookFor builds e's commit hook: append-and-fsync the delta, then
// compact if the generation is full. Runs under the engine lock (so
// appends are in commit order) with e.mu read-held by the operation
// that triggered it.
func (s *Store) hookFor(e *entry) hydrac.CommitHook {
	var buf bytes.Buffer
	return func(d hydrac.Delta, state *hydrac.TaskSet, cursor int, periods []hydrac.Time) error {
		if err := e.fault(); err != nil {
			return fmt.Errorf("%w: session is read-only after a storage fault (a probe re-arms it once the disk heals): %v", ErrDegraded, err)
		}
		buf.Reset()
		if err := hydrac.EncodeDelta(&buf, &d); err != nil {
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		if err := e.wal.Append(buf.Bytes()); err != nil {
			// The failed Log must not be appended to again (it may hold
			// a torn frame): flip the session read-only. The commit this
			// hook guards is aborted, so memory still matches the
			// committed on-disk history, and re-hydration (which repairs
			// the torn tail) restores an identical session.
			e.markDegraded(fmt.Errorf("WAL append failed: %v", err))
			s.logf("store: session %s: WAL append failed, session degraded to read-only: %v", e.id, err)
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		if e.wal.Count() >= s.opt.CompactEvery {
			s.compact(e, state, cursor, periods)
		}
		return nil
	}
}

// compact rotates e onto a fresh generation: snapshot the post-delta
// state, open an empty WAL under the next generation prefix, then
// delete the superseded files. Failures never affect the commit that
// triggered compaction — the delta is already durable in the old
// generation. A snapshot failure is retried at the next commit (the
// old generation is still whole and still current); a failure AFTER
// the new snapshot became authoritative flips the session into
// degraded read-only mode — further live commits would land in a log
// recovery no longer reads — until a probe re-arms it from the new
// generation.
func (s *Store) compact(e *entry, state *hydrac.TaskSet, cursor int, periods []hydrac.Time) {
	next := e.gen + 1
	if err := writeSnapshot(s.fs, e.dir, next, state, cursor, periodMap(state.Security, periods)); err != nil {
		// Old generation still whole and still current: skip this
		// compaction and retry at the next commit.
		s.logf("store: session %s: compaction snapshot failed (will retry): %v", e.id, err)
		return
	}
	l, _, err := wal.Open(e.dir, s.walOptions(next))
	if err != nil {
		e.markDegraded(fmt.Errorf("opening WAL generation %d after its snapshot was written: %v", next, err))
		s.logf("store: session %s: compaction lost its log, session degraded to read-only: %v", e.id, err)
		return
	}
	old, oldGen := e.wal, e.gen
	e.wal, e.gen = l, next
	_ = old.Close()
	s.removeGeneration(e.dir, oldGen)
}

// removeGeneration deletes one superseded generation's snapshot and
// WAL segments, best-effort.
func (s *Store) removeGeneration(dir string, gen uint64) {
	if err := s.fs.Remove(snapshotPath(dir, gen)); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.logf("store: removing %s: %v", snapshotPath(dir, gen), err)
	}
	if err := wal.RemoveGeneration(s.fs, dir, genPrefix(gen)); err != nil {
		s.logf("store: removing WAL generation %d in %s: %v", gen, dir, err)
	}
}

func (s *Store) walOptions(gen uint64) wal.Options {
	return wal.Options{Prefix: genPrefix(gen), NoSync: s.opt.NoSync, SegmentBytes: s.opt.SegmentBytes, FS: s.fs}
}

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// genPrefix names generation gen's WAL segment files.
func genPrefix(gen uint64) string { return fmt.Sprintf("g%d-", gen) }

// validID accepts ids that are safe as directory names everywhere:
// 1-128 characters of [a-zA-Z0-9_-]. Session ids minted by hydrad
// (32 hex chars) always pass.
func validID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
