package hydradhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"hydrac"
	"hydrac/internal/fleet"
	"hydrac/internal/hydraclient"
	"hydrac/internal/store"
)

// handoffVersion guards the /v1/handoff wire format.
const handoffVersion = 1

// maxHandoffBytes bounds a handoff body. A session export carries its
// whole uncompacted delta log, so the ordinary MaxBodyBytes cap would
// strand large sessions on a draining node.
const maxHandoffBytes = 64 << 20

// handoffRequest is the body of POST /v1/handoff: one session's
// complete durable state — the snapshot's placed set and cursor plus
// every committed delta since, in commit order. It is store.Export
// plus identity, shaped for the wire.
//
// Token, when set, names this handoff: the sender draws it once per
// session and replays it on every retry, so the receiver can tell a
// duplicate of an already-committed transfer (acknowledge again) from
// a genuine id conflict (409). Without it a retried POST whose first
// attempt committed but whose 200 was lost would read as failure,
// leaving the session alive on both nodes.
//
// Periods, when set, are the snapshot's committed periods by task
// name: the receiver verifies them instead of searching again. They
// are hints, so an absent or wrong map only costs that search.
type handoffRequest struct {
	Version   int                    `json:"version"`
	SessionID string                 `json:"session_id"`
	Token     string                 `json:"token,omitempty"`
	NextFit   int                    `json:"next_fit"`
	Set       json.RawMessage        `json:"set"`
	Deltas    []json.RawMessage      `json:"deltas"`
	Periods   map[string]hydrac.Time `json:"periods,omitempty"`
}

// handoff dispatches /v1/handoff: POST imports a session streamed
// from a draining peer, GET answers that peer's post-failure
// confirmation probe.
func (s *server) handoff(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handoffConfirm(w, r)
		return
	case http.MethodPost:
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req handoffRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHandoffBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, badRequestStatus(err), fmt.Errorf("decoding handoff request: %w", err))
		return
	}
	if req.Version != handoffVersion {
		writeError(w, http.StatusBadRequest, fmt.Errorf("handoff version %d; this build speaks %d", req.Version, handoffVersion))
		return
	}
	if req.SessionID == "" || len(req.Set) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("handoff request needs session_id and set"))
		return
	}
	if req.Token != "" {
		// A duplicate of a handoff already committed here is
		// acknowledged before any other refusal — including the
		// draining one below: the sender is deciding whether to delete
		// its local copy, and answering a committed transfer with
		// anything but 200 would leave the session alive on both nodes.
		committed := false
		switch {
		case s.store != nil:
			committed = s.store.ImportedWith(req.SessionID, req.Token)
		case s.sessions != nil:
			committed = s.memoryImportedWith(req.SessionID, req.Token)
		}
		if committed {
			s.writeHandoffAck(w, req)
			return
		}
	}
	if s.fleet != nil && s.fleet.Draining() {
		// Two nodes draining at once must not pass sessions back and
		// forth; the sender's HandoffTarget skips draining peers, and
		// this refusal closes the race where it probed us before we
		// flipped.
		writeError(w, http.StatusServiceUnavailable, errors.New("node is draining and cannot accept handoffs"))
		return
	}
	// The import persists first and recovers by the standard replay
	// path, so an acknowledged handoff is exactly as durable — and
	// exactly as bit-identical — as a locally created session that
	// survived a restart.
	switch {
	case s.store != nil:
		exp := store.Export{Set: req.Set, Cursor: req.NextFit, Deltas: make([][]byte, len(req.Deltas)), Periods: req.Periods}
		for i, d := range req.Deltas {
			exp.Deltas[i] = d
		}
		// Import acknowledges a token-matching duplicate with nil: the
		// retry of a committed-but-unacked transfer must answer 200.
		if err := s.store.Import(r.Context(), req.SessionID, exp, req.Token); err != nil {
			switch {
			case errors.Is(err, store.ErrExists):
				writeError(w, http.StatusConflict, err)
			case errors.Is(err, store.ErrStorage):
				writeStorageError(w, err)
			default:
				writeError(w, http.StatusUnprocessableEntity, err)
			}
			return
		}
	case s.sessions != nil:
		// Memory mode: replay through a fresh engine, the same
		// admission path recovery uses — a delta that fails to re-admit
		// fails the handoff rather than installing a diverged session.
		set, err := hydrac.DecodeTaskSet(bytes.NewReader(req.Set))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("handoff snapshot set: %w", err))
			return
		}
		if _, ok := s.sessions.Get(req.SessionID); ok {
			writeError(w, http.StatusConflict, fmt.Errorf("session %q already exists", req.SessionID))
			return
		}
		sess, _, err := s.analyzer.NewSessionWith(r.Context(), set, hydrac.SessionConfig{NextFitCursor: req.NextFit, Hints: req.Periods})
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("re-analysing handoff snapshot: %w", err))
			return
		}
		for i, raw := range req.Deltas {
			d, err := hydrac.DecodeDelta(bytes.NewReader(raw))
			if err != nil {
				writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("handoff delta %d: %w", i, err))
				return
			}
			if _, admitted, err := sess.Admit(r.Context(), *d); err != nil || !admitted {
				writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("handoff delta %d failed to re-admit (admitted=%v err=%v)", i, admitted, err))
				return
			}
		}
		// The existence probe above is only a fast path; this insert is
		// the authoritative one. Two concurrent imports of the same id
		// can both pass the probe, and a blind Add would let the second
		// silently overwrite the first — AddIfAbsent picks one winner
		// under the shard lock, the loser conflicts like any duplicate.
		if !s.sessions.AddIfAbsent(req.SessionID, sess) {
			writeError(w, http.StatusConflict, fmt.Errorf("session %q already exists", req.SessionID))
			return
		}
		if req.Token != "" {
			s.handoffTokens.Add(req.SessionID, req.Token)
		}
	default:
		writeError(w, http.StatusNotFound, errors.New("sessions are disabled on this daemon (-sessions 0)"))
		return
	}
	s.writeHandoffAck(w, req)
}

// writeHandoffAck answers 200 for a committed (or already-committed)
// handoff.
func (s *server) writeHandoffAck(w http.ResponseWriter, req handoffRequest) {
	s.logf("session %s received via handoff (%d deltas)", req.SessionID, len(req.Deltas))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"session_id": req.SessionID, "deltas": len(req.Deltas)})
}

// memoryImportedWith reports whether a memory-mode handoff carrying
// token committed here and the session is still live. Unlike the
// durable store's ImportedWith this cannot survive a restart (nothing
// in memory mode does) and an evicted session answers false — the
// sender then rightly keeps its copy.
func (s *server) memoryImportedWith(id, token string) bool {
	if token == "" {
		return false
	}
	t, ok := s.handoffTokens.Get(id)
	if !ok || t != token {
		return false
	}
	_, live := s.sessions.Get(id)
	return live
}

// handoffConfirm is GET /v1/handoff?session=<id>&token=<tok>: the
// sender of an ambiguous handoff (timeout, lost response, retries
// exhausted) asking whether its POST committed here. 200 means the
// import with exactly that token is durable on this node — the sender
// must surrender its local copy; 404 means it never committed — the
// sender must keep serving the session. Answered even while draining:
// it is a read, and refusing it would re-open the very ambiguity it
// exists to close.
func (s *server) handoffConfirm(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	token := r.URL.Query().Get("token")
	if id == "" || token == "" {
		writeError(w, http.StatusBadRequest, errors.New("handoff confirm needs session and token query parameters"))
		return
	}
	held := false
	switch {
	case s.store != nil:
		held = s.store.ImportedWith(id, token)
	case s.sessions != nil:
		held = s.memoryImportedWith(id, token)
	}
	if !held {
		writeError(w, http.StatusNotFound, fmt.Errorf("no committed handoff of session %q with that token", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"session_id": id, "held": true})
}

// holdsSession reports whether this node holds id locally (durable
// entry or in-memory session). Possession overrides ring ownership
// when routing: a handed-off session lives where it landed.
func (s *server) holdsSession(id string) bool {
	switch {
	case s.store != nil:
		return s.store.Has(id)
	case s.sessions != nil:
		_, ok := s.sessions.Get(id)
		return ok
	default:
		return false
	}
}

// redirect answers 307 + X-Hydra-Owner pointing at owner (a base
// URL). 307 preserves the method and body on standards-following
// clients; X-Hydra-Owner lets minimal clients re-aim their base URL.
func (s *server) redirect(w http.ResponseWriter, r *http.Request, owner string) {
	w.Header().Set("X-Hydra-Owner", owner)
	w.Header().Set("Location", owner+r.URL.RequestURI())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTemporaryRedirect)
	json.NewEncoder(w).Encode(map[string]string{"error": "resource is served by " + owner, "owner": owner})
}

// redirectToHandoffTarget redirects a session request to the node
// next in line for id, if any; reports whether it answered.
func (s *server) redirectToHandoffTarget(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.fleet == nil {
		return false
	}
	target := s.fleet.HandoffTarget(id)
	if target == "" {
		return false
	}
	s.redirect(w, r, target)
	return true
}

// writeFailoverUnavailable answers 503 for a session this node serves
// only as failover successor (the ring owner is down) but holds no
// copy of; reports whether it answered. The only durable copy is on
// the downed owner, so redirecting to the next healthy peer — which
// cannot hold it either — would just make two healthy nodes 307 each
// other until the client's hop cap. The honest answer is "temporarily
// unavailable, retry once the owner is back", with Retry-After tuned
// to how fast the prober can notice that recovery.
func (s *server) writeFailoverUnavailable(w http.ResponseWriter, id string) bool {
	if s.fleet == nil || s.fleet.Owns(id) {
		return false
	}
	w.Header().Set("Retry-After", retryAfterSeconds(time.Duration(fleet.DefaultUpAfter)*fleet.DefaultProbeEvery))
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("session %q is temporarily unavailable: its owner is down and this failover node holds no copy of it", id))
	return true
}

// newOwnedSessionID mints ids until one lands on this node's ring
// share, so a created session is always local and every node routes
// it here by hash alone. Ownership is the raw ring (health-blind):
// a session must not be minted into a downed peer's share, only to
// bounce home when that peer recovers. Expected draws = fleet size;
// the cap is ~e^-64 unreachable unless the ring is misconfigured.
func (s *server) newOwnedSessionID() (string, error) {
	if s.fleet == nil {
		return newSessionID()
	}
	for i := 0; i < 4096; i++ {
		id, err := newSessionID()
		if err != nil {
			return "", err
		}
		if s.fleet.Owns(id) {
			return id, nil
		}
	}
	return "", errors.New("could not mint a session id owned by this node (consistent-hash ring badly unbalanced?)")
}

// drainHandoffTimeout bounds one session's handoff POST during drain.
const drainHandoffTimeout = 30 * time.Second

// Drain flips this node into draining mode and hands every durable
// session off to its ring-successor peer: for each session, the
// snapshot + committed-delta log is streamed over POST /v1/handoff
// and the local copy is surrendered only on acknowledgement
// (store.Detach), so an acked delta exists on exactly one node at
// every point in time — zero acked-delta loss, no twins.
//
// Ordering guarantees, in drain order:
//
//  1. StartDrain first: new creates redirect away, /healthz reports
//     "draining" (peers stop handing off TO us), while existing
//     sessions keep serving.
//  2. Per session: in-flight operations finish, then the state is
//     frozen, shipped, acknowledged, and only then deleted locally;
//     from that instant requests answer 307 to the new owner.
//  3. Sessions with no eligible peer (all down or draining) stay on
//     local disk — a restart recovers them; nothing is ever shipped
//     without an acknowledgement.
//
// Returns how many sessions moved and how many stayed. Memory-mode
// sessions (no -data-dir) are not handed off: they were never
// durable, and shutting down loses them exactly as it always did.
func (h *Handler) Drain(ctx context.Context) (moved, kept int) {
	s := h.srv
	if s.fleet == nil {
		return 0, 0
	}
	s.fleet.StartDrain()
	if s.store == nil {
		return 0, 0
	}
	// Handoffs ride the retrying client: a receiver mid-GC or briefly
	// shedding under its admission gate must not strand a session
	// locally when a second attempt would land it.
	hc := hydraclient.New(hydraclient.Config{
		Client:     &http.Client{Timeout: drainHandoffTimeout},
		MaxRetries: 4,
	})
	ids := s.store.IDs()
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			// Every id not yet reached stays local; the ones already
			// processed are counted in moved/kept above this line.
			kept += len(ids) - i
			s.logf("drain: aborted with %d sessions left local: %v", len(ids)-i, err)
			break
		}
		target := s.fleet.HandoffTarget(id)
		if target == "" {
			kept++
			s.logf("drain: no eligible peer for session %s; leaving it on local disk for restart recovery", id)
			continue
		}
		// One token per session handoff, replayed verbatim on every
		// retry: the receiver uses it to acknowledge a duplicate of a
		// committed transfer instead of conflicting, and the confirm
		// probe below uses it to resolve an ambiguous failure.
		token, err := newSessionID()
		if err != nil {
			kept++
			s.logf("drain: session %s stays local: %v", id, err)
			continue
		}
		err = s.store.Detach(ctx, id, func(exp store.Export) error {
			return postHandoff(ctx, hc, target, id, token, exp)
		})
		if err != nil {
			kept++
			s.logf("drain: session %s stays local: %v", id, err)
			continue
		}
		moved++
		s.logf("drain: session %s handed off to %s", id, target)
	}
	return moved, kept
}

// postHandoff ships one export to target's /v1/handoff. nil means the
// receiver durably committed the session — and ONLY that: when the
// POST's outcome is ambiguous (client-side timeout after the receiver
// committed, a lost response, retries exhausted), the receiver is
// asked directly before the failure is believed, because the caller
// deletes or keeps the local copy on this verdict and a wrong
// "failed" leaves the session alive on two nodes.
func postHandoff(ctx context.Context, hc *hydraclient.Client, target, id, token string, exp store.Export) error {
	req := handoffRequest{
		Version:   handoffVersion,
		SessionID: id,
		Token:     token,
		NextFit:   exp.Cursor,
		Set:       exp.Set,
		Deltas:    make([]json.RawMessage, len(exp.Deltas)),
		Periods:   exp.Periods,
	}
	for i, d := range exp.Deltas {
		req.Deltas[i] = d
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, err := hc.Do(ctx, http.MethodPost, target+"/v1/handoff", "application/json", body)
	if err == nil && status == http.StatusOK {
		return nil
	}
	if confirmHandoff(ctx, hc, target, id, token) {
		return nil
	}
	if err != nil {
		return err
	}
	return fmt.Errorf("handoff to %s answered status %d", target, status)
}

// confirmHandoff asks target whether the handoff carrying token
// committed. Only a definite 200 flips an ambiguous failure into a
// success; anything else — including the probe itself failing, where
// the session then stays local and at worst a dormant committed copy
// idles on the receiver — reports false, because keeping state is
// recoverable and losing it is not.
func confirmHandoff(ctx context.Context, hc *hydraclient.Client, target, id, token string) bool {
	u := target + "/v1/handoff?session=" + url.QueryEscape(id) + "&token=" + url.QueryEscape(token)
	status, err := hc.Do(ctx, http.MethodGet, u, "", nil)
	return err == nil && status == http.StatusOK
}
