package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"enframe/internal/stream"
)

// StreamRequest is the body of POST /v1/stream — one protocol verb against
// a long-lived streaming session. Ops:
//
//   - "create": open a session from Config; returns the session id, its
//     initial marginals, and the addressable window/variable/tuple state.
//   - "push":   apply Deltas atop BaseSeq; BaseSeq must equal the session's
//     current sequence or the push is rejected with 409 (duplicate or
//     out-of-order delivery).
//   - "query":  read the current marginals without pushing.
//   - "close":  tear the session down.
type StreamRequest struct {
	Op        string         `json:"op"`
	SessionID string         `json:"session_id,omitempty"`
	Config    *stream.Config `json:"config,omitempty"`
	BaseSeq   uint64         `json:"base_seq,omitempty"`
	Deltas    []stream.Delta `json:"deltas,omitempty"`
	TimeoutMs int            `json:"timeout_ms,omitempty"`
	Tenant    string         `json:"tenant,omitempty"`
}

// StreamWindow describes one live window of a session: what a client may
// address with deltas.
type StreamWindow struct {
	Window int64    `json:"window"`
	Vars   []string `json:"vars"`
	Tuples []int    `json:"tuples"`
}

// StreamResponse is the body of a successful POST /v1/stream.
type StreamResponse struct {
	SessionID string            `json:"session_id"`
	Seq       uint64            `json:"seq"`
	Marginals []stream.Marginal `json:"marginals,omitempty"`
	Stats     *stream.Stats     `json:"stats,omitempty"`
	Windows   []StreamWindow    `json:"windows,omitempty"`
	Closed    bool              `json:"closed,omitempty"`
}

// streamSeqConflict is the 409 body of a rejected push; Seq tells the
// client where to resume.
type streamSeqConflict struct {
	Error string `json:"error"`
	Seq   uint64 `json:"seq"`
}

// streamEntry is one registered session.
type streamEntry struct {
	s        *stream.Session
	tenant   string
	lastUsed time.Time
}

// streamRegistry holds the server's live sessions: a flat map with a hard
// cap and idle-based eviction (a session untouched for longer than the idle
// timeout is reclaimed when space is needed).
type streamRegistry struct {
	mu       sync.Mutex
	sessions map[string]*streamEntry
	cap      int
	idle     time.Duration
	// now is the idle clock; time.Now unless a test injects its own
	// (setClock).
	now func() time.Time
}

func newStreamRegistry(capacity int, idle time.Duration) *streamRegistry {
	return &streamRegistry{
		sessions: map[string]*streamEntry{},
		cap:      capacity,
		idle:     idle,
		now:      time.Now,
	}
}

// setClock replaces the idle clock.
func (r *streamRegistry) setClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// add registers a session, marking it used now and evicting idle ones if
// the registry is full. It reports how many sessions were evicted and
// whether the add succeeded.
func (r *streamRegistry) add(id string, e *streamEntry) (evicted int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.sessions[id]; exists {
		return 0, false
	}
	now := r.now()
	if len(r.sessions) >= r.cap {
		cutoff := now.Add(-r.idle)
		for sid, se := range r.sessions {
			if se.lastUsed.Before(cutoff) {
				delete(r.sessions, sid)
				evicted++
			}
		}
	}
	if len(r.sessions) >= r.cap {
		return evicted, false
	}
	e.lastUsed = now
	r.sessions[id] = e
	return evicted, true
}

// get returns a session and bumps its idle clock.
func (r *streamRegistry) get(id string) (*streamEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.sessions[id]
	if ok {
		e.lastUsed = r.now()
	}
	return e, ok
}

func (r *streamRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sessions[id]
	delete(r.sessions, id)
	return ok
}

func (r *streamRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

func (r *streamRegistry) clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions = map[string]*streamEntry{}
}

// newSessionID mints a random 16-hex-digit session id.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: session id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// NewStreamSessionID mints a session id for callers that must know it
// before the shard does — the shard router assigns ids to anonymous
// "create" requests so it has a routing key for the whole session life.
func NewStreamSessionID() string { return newSessionID() }

// handleStream is POST /v1/stream: admission → decode → verb dispatch
// against the session registry. Sessions are shard-local state; the shard
// router pins every request carrying one session id to the same shard.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		s.mRejDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	select {
	case s.queueSlots <- struct{}{}:
		defer func() { <-s.queueSlots }()
	default:
		s.mRejQueue.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full (%d executing + %d waiting)",
			s.cfg.MaxInflight, s.cfg.QueueDepth)
		return
	}

	var req StreamRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.TimeoutMs < 0 {
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "timeout_ms must be ≥ 0")
		return
	}
	info := infoFrom(r.Context())
	info.artifact = "stream:" + req.SessionID

	tenant := resolveTenant(req.Tenant, r.Header.Get(tenantHeader))
	info.tenant = tenant
	if !s.tenants.acquire(tenant) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant %q over quota (%d slots)",
			tenant, s.cfg.TenantQuota)
		return
	}
	defer s.tenants.release(tenant)

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	select {
	case s.workSlots <- struct{}{}:
		defer func() { <-s.workSlots }()
	case <-ctx.Done():
		s.finishCtxErr(w, r, ctx)
		return
	}
	cur := s.inflight.Add(1)
	s.gInflight.Set(float64(cur))
	s.gInflightPeak.SetMax(float64(cur))
	defer func() { s.gInflight.Set(float64(s.inflight.Add(-1))) }()
	if testHookInflight != nil {
		testHookInflight()
	}

	t0 := time.Now()
	switch req.Op {
	case "create":
		s.streamCreate(ctx, w, req, tenant)
	case "push":
		s.streamPush(ctx, w, req)
	case "query":
		s.streamQuery(ctx, w, req)
	case "close":
		s.streamClose(w, req)
	default:
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "unknown op %q (want create, push, query, or close)", req.Op)
		return
	}
	s.hLatency.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	if req.Op == "push" {
		s.hStreamPush.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
}

func (s *Server) streamCreate(ctx context.Context, w http.ResponseWriter, req StreamRequest, tenant string) {
	cfg := stream.Config{}
	if req.Config != nil {
		cfg = *req.Config
	}
	sess, err := stream.NewSession(ctx, cfg)
	if err != nil {
		if ctx.Err() != nil {
			s.mDeadline.Inc()
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
			return
		}
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := req.SessionID
	if id == "" {
		id = newSessionID()
	}
	evicted, ok := s.streams.add(id, &streamEntry{s: sess, tenant: tenant})
	if evicted > 0 {
		s.mStreamEvicted.Add(int64(evicted))
	}
	if !ok {
		if _, exists := s.streams.get(id); exists {
			s.mBadRequest.Inc()
			writeError(w, http.StatusConflict, "session %q already exists", id)
			return
		}
		s.mRejQueue.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "session registry full (%d sessions)", s.cfg.MaxStreamSessions)
		return
	}
	s.mStreamCreated.Inc()
	s.gStreamActive.Set(float64(s.streams.len()))
	u, err := sess.Query(ctx)
	if err != nil {
		s.streamError(w, ctx, err)
		return
	}
	writeJSON(w, http.StatusOK, &StreamResponse{
		SessionID: id,
		Seq:       u.Seq,
		Marginals: u.Marginals,
		Stats:     &u.Stats,
		Windows:   streamWindows(sess),
	})
}

func (s *Server) streamPush(ctx context.Context, w http.ResponseWriter, req StreamRequest) {
	e, ok := s.streams.get(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", req.SessionID)
		return
	}
	u, err := e.s.Apply(ctx, req.BaseSeq, req.Deltas)
	if err != nil {
		var se *stream.SeqError
		if errors.As(err, &se) {
			s.mStreamSeqConflict.Inc()
			writeJSON(w, http.StatusConflict, streamSeqConflict{Error: se.Error(), Seq: se.Want})
			return
		}
		s.streamError(w, ctx, err)
		return
	}
	s.mStreamPushes.Inc()
	s.mStreamDeltas.Add(int64(u.Stats.Applied))
	s.mStreamReplays.Add(int64(u.Stats.Replayed))
	s.mStreamRetraces.Add(int64(u.Stats.Retraced))
	s.mStreamRegrounds.Add(int64(u.Stats.Reground))
	if u.Stats.Full {
		s.mStreamFull.Inc()
	}
	writeJSON(w, http.StatusOK, &StreamResponse{
		SessionID: req.SessionID,
		Seq:       u.Seq,
		Marginals: u.Marginals,
		Stats:     &u.Stats,
	})
}

func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, req StreamRequest) {
	e, ok := s.streams.get(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", req.SessionID)
		return
	}
	u, err := e.s.Query(ctx)
	if err != nil {
		s.streamError(w, ctx, err)
		return
	}
	writeJSON(w, http.StatusOK, &StreamResponse{
		SessionID: req.SessionID,
		Seq:       u.Seq,
		Marginals: u.Marginals,
		Stats:     &u.Stats,
		Windows:   streamWindows(e.s),
	})
}

func (s *Server) streamClose(w http.ResponseWriter, req StreamRequest) {
	if !s.streams.remove(req.SessionID) {
		writeError(w, http.StatusNotFound, "no session %q", req.SessionID)
		return
	}
	s.mStreamClosed.Inc()
	s.gStreamActive.Set(float64(s.streams.len()))
	writeJSON(w, http.StatusOK, &StreamResponse{SessionID: req.SessionID, Closed: true})
}

// streamError maps a session failure onto the response contract: 400 for
// rejected batches, 504/499 for context expiry, 422 otherwise.
func (s *Server) streamError(w http.ResponseWriter, ctx context.Context, err error) {
	var ve *stream.ValidationError
	if errors.As(err, &ve) {
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ctx.Err() != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.mDeadline.Inc()
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		} else {
			s.mCanceled.Inc()
			w.WriteHeader(statusClientClosedRequest)
		}
		return
	}
	s.mErrors.Inc()
	writeError(w, http.StatusUnprocessableEntity, "%v", err)
}

func streamWindows(sess *stream.Session) []StreamWindow {
	var out []StreamWindow
	for _, w := range sess.Windows() {
		vars, _ := sess.VarNames(w)
		ids, _ := sess.TupleIDs(w)
		out = append(out, StreamWindow{Window: w, Vars: vars, Tuples: ids})
	}
	return out
}
