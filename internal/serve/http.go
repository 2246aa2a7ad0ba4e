package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
)

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /votes      ingest a vote batch; 200 acknowledges durability
//	GET  /rank       serve a ranking; ?deadline_ms bounds inference time;
//	                 ETag "<gen>-<algorithm>", If-None-Match answers 304
//	POST /snapshot   take a snapshot now and compact covered segments
//	GET  /metrics    Prometheus text exposition of the metric registry
//	GET  /healthz    liveness + operational stats (always 200 while up)
//	GET  /readyz     readiness; 503 once shutdown has begun or the
//	                 journal is poisoned by a disk fault
//
// Ingest and rank are guarded by bounded queues: when a queue is full the
// request is rejected immediately with 429 and a Retry-After header
// instead of piling onto the journal or the inference pipeline.
//
// Every route is instrumented: request counts by (route, status code),
// per-route latency histograms, and slow-request logging through Logf
// once a request exceeds Config.SlowRequestThreshold.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /votes", s.instrument("votes", s.handleVotes))
	mux.Handle("GET /rank", s.instrument("rank", s.handleRank))
	mux.Handle("POST /snapshot", s.instrument("snapshot", s.handleSnapshot))
	mux.Handle("GET /metrics", s.instrument("metrics", s.met.reg.Handler().ServeHTTP))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	return mux
}

// statusWriter captures the response code for request metrics, and
// whether anything was written yet — the panic middleware may only send
// its 500 on a pristine response.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Instrument wraps h in the instrumentation every Handler route has. A
// layer that serves one of those routes itself, such as the replication
// node's /healthz and /readyz, wraps its handler under the same route
// name, so its requests are counted as if Handler had served them.
func (s *Server) Instrument(route string, h http.HandlerFunc) http.Handler {
	return s.instrument(route, h)
}

// instrument wraps one route handler with panic recovery, request
// counting, latency observation, and slow-request logging, all on the
// server clock. A panicking handler is logged and counted
// (crowdrankd_http_panics_total) and answered 500 when the response is
// still unwritten — one broken request must not wedge the daemon.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.clock.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if rec == http.ErrAbortHandler {
					// The sanctioned way to abort a response; net/http
					// suppresses its stack trace. Not a defect, not a 500.
					panic(rec)
				}
				s.met.panics.Inc()
				s.logf("serve: panic in %s handler: %v", route, rec)
				if !sw.wrote {
					s.writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}()
			h(sw, r)
		}()
		elapsed := s.clock.Since(start)
		s.met.httpRequest(route, sw.status)
		s.met.httpSeconds[route].ObserveDuration(elapsed)
		if thr := s.cfg.SlowRequestThreshold; thr > 0 && elapsed >= thr {
			s.met.slowRequests.Inc()
			s.logf("serve: slow request: %s %s answered %d in %v (threshold %v)",
				r.Method, r.URL.Path, sw.status, elapsed.Round(time.Millisecond), thr)
		}
	})
}

// writeJSON emits one JSON response; encode failures (client gone,
// connection reset) are logged rather than dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("serve: writing %d response: %v", status, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// acquire takes a slot from a bounded queue without blocking; a full
// queue means the caller should answer 429.
func acquire(sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// minVoteJSON is the fewest bytes a vote takes in the body a client
// sends ({"worker":0,"i":0,"j":1,"prefers_i":true} and a comma), so the
// Content-Length over it bounds the vote count: the batch is sized once.
const minVoteJSON = 42

// retryAfter is the Retry-After value (integer seconds, the parseable
// contract clients rely on) on every 429: a full queue.
const retryAfter = "5"

func (s *Server) handleVotes(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if len(key) > maxKeyLen {
		s.writeError(w, http.StatusBadRequest, "Idempotency-Key of %d bytes exceeds maximum %d", len(key), maxKeyLen)
		return
	}
	if !acquire(s.ingestSem) {
		s.met.rejectedIngest.Inc()
		w.Header().Set("Retry-After", retryAfter)
		s.writeError(w, http.StatusTooManyRequests, "ingest queue full")
		return
	}
	defer func() { <-s.ingestSem }()

	// The body streams straight into the batch: past maxBatchVotes it is
	// only counted, so a request holds at most maxBatchVotes packed votes
	// whatever its size.
	b := s.newBatch(int(min(r.ContentLength/minVoteJSON, maxBatchVotes)))
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := crowd.ReadVotesJSON(body, &b); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	res, done, err := s.admit(r.Context(), key)
	if !done {
		res, err = s.ingestBatch(r.Context(), key, b)
	}
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusOK, res)
	case errors.Is(err, errShuttingDown):
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case errors.Is(err, errBatchTooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.Is(err, errKeyTooLong):
		s.writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, journal.ErrPoisoned):
		// A prior disk fault poisoned the journal: durability can no
		// longer be promised, so no batch is acknowledged again until the
		// operator replaces the volume and restarts.
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client vanished before the batch committed: nothing was written,
		// nothing to acknowledge.
		s.writeError(w, http.StatusBadRequest, "request cancelled before batch committed")
	default:
		// Journal append failed: the batch is NOT durable and must not be
		// acknowledged.
		s.logf("serve: ingest failed: %v", err)
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	deadline := DefaultDeadline
	if raw := r.URL.Query().Get("deadline_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			s.writeError(w, http.StatusBadRequest, "deadline_ms must be a positive integer, got %q", raw)
			return
		}
		// Clamped in milliseconds: a huge ms would wrap negative as a
		// Duration.
		deadline = time.Duration(min(ms, MaxDeadline.Milliseconds())) * time.Millisecond
	}
	// A client already holding the cached answer is told so without
	// queueing or searching.
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if tag, ok := s.cachedETag(); ok && etagListMatches(inm, tag) {
			s.ahead.arm() // a 304 is a served rank
			w.Header().Set("ETag", tag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if !acquire(s.rankSem) {
		s.met.rejectedRank.Inc()
		w.Header().Set("Retry-After", retryAfter)
		s.writeError(w, http.StatusTooManyRequests, "rank queue full")
		return
	}
	defer func() { <-s.rankSem }()

	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	res, err := s.RankContext(ctx)
	switch {
	case err == nil:
		w.Header().Set("ETag", res.etag())
		s.writeJSON(w, http.StatusOK, res)
	case errors.Is(err, errShuttingDown):
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case errors.Is(err, context.Canceled):
		// Client went away; nobody reads this, but close out the request.
		s.writeError(w, http.StatusBadRequest, "request cancelled")
	default:
		s.logf("serve: rank failed: %v", err)
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// etagListMatches reports whether an If-None-Match header value names
// tag, under the weak comparison RFC 9110 prescribes for it.
func etagListMatches(header, tag string) bool {
	for _, t := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(t), "W/") == tag {
			return true
		}
	}
	return false
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	res, err := s.Snapshot()
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusOK, res)
	case errors.Is(err, errShuttingDown):
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case errors.Is(err, errNoJournal):
		s.writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, journal.ErrPoisoned):
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.logf("serve: snapshot failed: %v", err)
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := s.Ready(); err != nil {
		if errors.Is(err, errShuttingDown) {
			s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
