// Package client is the resilient ingestion client for the crowdrankd
// daemon: capped exponential backoff with full jitter, Retry-After
// honoring on 429/503, per-attempt timeouts, context cancellation, and a
// client-generated idempotency key on every vote batch.
//
// The paper's non-interactive setting spends the budget B in one round,
// so a vote batch that is lost (ack dropped by the network) or applied
// twice (blind retry) corrupts the budget→accuracy trade-off the daemon
// exists to serve. The client therefore never retries blindly: each
// SubmitVotes call draws one idempotency key and replays it on every
// attempt, and the daemon's ack window makes the retry an ack-without-
// reapply. That makes EVERY failure retryable — including ambiguous ones
// like a reset mid-response, where the batch may or may not have
// committed — which is exactly the case a keyless client cannot handle.
//
// Backoff and key generation draw from a seeded PCG stream per the repo's
// determinism conventions: a fixed Config.Seed reproduces the same key
// and jitter sequence, which the chaos soak relies on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/obs"
)

// Replication protocol headers (mirroring internal/replica): followers
// reject ingest with a 503 carrying the leader hint, and every node
// stamps its fencing epoch on responses. The client replays the highest
// epoch it has seen on each request — that echo is what fences a deposed
// leader that missed the promotion.
const (
	leaderHeader = "X-Crowdrank-Leader"
	epochHeader  = "X-Crowdrank-Epoch"
)

// Config configures a Client. Zero-valued fields take the documented
// defaults; only BaseURL is mandatory.
type Config struct {
	// BaseURL is the daemon's base URL, e.g. "http://127.0.0.1:8077".
	BaseURL string

	// Seed drives idempotency-key generation and backoff jitter. 0 draws a
	// time-derived seed (matching the daemon's own convention); fix it for
	// reproducible retry schedules in tests.
	Seed uint64

	// MaxAttempts bounds tries per call, first attempt included. Default 8.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff cap; each further retry
	// doubles it up to MaxBackoff, and the actual sleep is drawn uniformly
	// from [0, cap) ("full jitter"). Defaults 100ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each individual HTTP attempt; the surrounding
	// context still bounds the whole call. Default 10s.
	AttemptTimeout time.Duration
	// MaxRetryAfter caps how long a server-sent Retry-After header can
	// stretch one backoff, so a confused server cannot park the client.
	// Default 30s.
	MaxRetryAfter time.Duration

	// HTTPClient issues the requests; nil uses a plain &http.Client{}.
	// Per-attempt timeouts come from AttemptTimeout, not HTTPClient.Timeout.
	HTTPClient *http.Client
	// Metrics receives client counters (attempts, retries by reason,
	// replayed acks); nil creates a private registry.
	Metrics *obs.Registry
	// Logf receives retry decisions; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if strings.TrimSpace(c.BaseURL) == "" {
		return c, fmt.Errorf("client: BaseURL is required")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.MaxRetryAfter == 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	if c.MaxAttempts < 1 || c.BaseBackoff < 0 || c.MaxBackoff < c.BaseBackoff ||
		c.AttemptTimeout <= 0 || c.MaxRetryAfter < 0 {
		return c, fmt.Errorf("client: retry settings out of range: attempts=%d base=%v max=%v attempt_timeout=%v",
			c.MaxAttempts, c.BaseBackoff, c.MaxBackoff, c.AttemptTimeout)
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Seed == 0 {
		c.Seed = uint64(time.Now().UnixNano())
	}
	return c, nil
}

// Ack is the daemon's acknowledgement of one durable vote batch; it
// mirrors the POST /votes response body.
type Ack struct {
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Malformed  int  `json:"malformed"`
	Seq        int  `json:"seq"`
	TotalVotes int  `json:"total_votes"`
	Replayed   bool `json:"replayed,omitempty"`

	// Key is the idempotency key the batch was submitted under (set by the
	// client, not part of the wire body).
	Key string `json:"-"`
}

// Ranking mirrors the GET /rank response body.
type Ranking struct {
	Ranking   []int   `json:"ranking"`
	LogProb   float64 `json:"log_prob"`
	Algorithm string  `json:"algorithm"`
	Degraded  bool    `json:"degraded"`
	Votes     int     `json:"votes"`
	Seed      uint64  `json:"seed"`
	Gen       uint64  `json:"gen"`
}

// StatusError is a non-retryable HTTP failure: the daemon answered, and
// the answer means "do not try this again" (4xx other than 429).
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: daemon answered %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// LeaderRedirect reports that the addressed node is a warm-standby
// follower: the request was NOT applied there, and Leader is the node's
// best hint for where the leader is. A Pool follows the hint
// automatically; a single-endpoint Client surfaces it immediately (no
// point retrying a follower) so the caller can re-point.
type LeaderRedirect struct {
	Leader string
	Body   string
}

func (e *LeaderRedirect) Error() string {
	return fmt.Sprintf("client: node is a follower; leader hint %q: %s", e.Leader, strings.TrimSpace(e.Body))
}

// metrics is the client's counter bundle.
type cmetrics struct {
	attempts     *obs.Counter
	retryNet     *obs.Counter
	retryStatus  *obs.Counter
	timeouts     *obs.Counter
	replayedAcks *obs.Counter
	exhausted    *obs.Counter
}

// Client submits vote batches to one crowdrankd daemon. Safe for
// concurrent use. Create with New.
type Client struct {
	cfg  Config
	logf func(string, ...any)
	met  cmetrics

	// rngMu guards rng: key generation and jitter draws interleave across
	// goroutines but each draw stays atomic, keeping the stream valid.
	rngMu sync.Mutex
	rng   *rand.Rand

	// epoch ratchets the highest replication epoch seen on any response
	// and is echoed on every request. A Pool points all its per-endpoint
	// clients at one shared counter, so an epoch learned from the new
	// leader immediately fences the old one on the next contact.
	epoch *atomic.Uint64

	// sleep is the backoff wait, a seam so tests assert on the schedule
	// instead of actually sleeping. It must honor ctx.
	sleep func(ctx context.Context, d time.Duration) error
}

// New validates cfg and returns a ready Client.
func New(cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x636c69656e74)), // "client"
		met: cmetrics{
			attempts:     cfg.Metrics.Counter("crowdrank_client_attempts_total", "HTTP attempts issued, first tries included."),
			retryNet:     cfg.Metrics.Counter("crowdrank_client_retries_total", "Retries by what failed.", obs.L("reason", "network")),
			retryStatus:  cfg.Metrics.Counter("crowdrank_client_retries_total", "Retries by what failed.", obs.L("reason", "status")),
			timeouts:     cfg.Metrics.Counter("crowdrank_client_attempt_timeouts_total", "Attempts cut off by the per-attempt timeout."),
			replayedAcks: cfg.Metrics.Counter("crowdrank_client_replayed_acks_total", "Acks served from the daemon's idempotency window (retry after a lost ack)."),
			exhausted:    cfg.Metrics.Counter("crowdrank_client_exhausted_total", "Calls that failed every attempt."),
		},
		epoch: &atomic.Uint64{},
		sleep: sleepCtx,
		logf:  cfg.Logf,
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	return c, nil
}

// Metrics returns the client's metric registry.
func (c *Client) Metrics() *obs.Registry { return c.cfg.Metrics }

// NewKey draws the next idempotency key from the client's seeded stream.
// SubmitVotes calls it internally; use it directly only to coordinate a
// key across processes.
func (c *Client) NewKey() string {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return fmt.Sprintf("%016x%016x", c.rng.Uint64(), c.rng.Uint64())
}

// jitter draws the full-jitter backoff before retry number n (1-based):
// uniform in [0, min(MaxBackoff, BaseBackoff·2^(n-1))).
func (c *Client) jitter(n int) time.Duration {
	cap := c.cfg.BaseBackoff << (n - 1)
	if cap > c.cfg.MaxBackoff || cap <= 0 { // <=0 catches shift overflow
		cap = c.cfg.MaxBackoff
	}
	if cap <= 0 {
		return 0
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int64N(int64(cap)))
}

// SubmitVotes delivers one vote batch, retrying under a single fresh
// idempotency key until the daemon acks it, the attempts are exhausted,
// or ctx ends. A nil error means the batch is durable on the daemon
// exactly once — even if earlier attempts died mid-response.
func (c *Client) SubmitVotes(ctx context.Context, votes []crowd.Vote) (Ack, error) {
	return c.SubmitVotesKeyed(ctx, c.NewKey(), votes)
}

// voteJSON mirrors the daemon's wire form of one vote.
type voteJSON struct {
	Worker   int  `json:"worker"`
	I        int  `json:"i"`
	J        int  `json:"j"`
	PrefersI bool `json:"prefers_i"`
}

// SubmitVotesKeyed is SubmitVotes under a caller-chosen idempotency key,
// for resubmitting a batch whose first delivery ended ambiguously in an
// earlier process life.
func (c *Client) SubmitVotesKeyed(ctx context.Context, key string, votes []crowd.Vote) (Ack, error) {
	var ack Ack
	if key == "" {
		return ack, fmt.Errorf("client: empty idempotency key")
	}
	wire := make([]voteJSON, len(votes))
	for i, v := range votes {
		wire[i] = voteJSON{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}
	}
	body, err := json.Marshal(struct {
		Votes []voteJSON `json:"votes"`
	}{wire})
	if err != nil {
		return ack, fmt.Errorf("client: encoding batch: %w", err)
	}
	err = c.do(ctx, http.MethodPost, "/votes", body, key, &ack)
	if err != nil {
		return ack, err
	}
	ack.Key = key
	if ack.Replayed {
		c.met.replayedAcks.Inc()
	}
	return ack, nil
}

// Rank fetches a ranking; deadline > 0 becomes the ?deadline_ms bound the
// daemon's degradation ladder honors.
func (c *Client) Rank(ctx context.Context, deadline time.Duration) (Ranking, error) {
	var rk Ranking
	path := "/rank"
	if deadline > 0 {
		path += "?deadline_ms=" + strconv.FormatInt(deadline.Milliseconds(), 10)
	}
	err := c.do(ctx, http.MethodGet, path, nil, "", &rk)
	return rk, err
}

// do runs the retry loop for one logical call: capped exponential backoff
// with full jitter, stretched by server Retry-After hints, bounded by
// MaxAttempts and ctx.
func (c *Client) do(ctx context.Context, method, path string, body []byte, key string, out any) error {
	var lastErr error
	var retryAfter time.Duration
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			wait := c.jitter(attempt - 1)
			if retryAfter > wait {
				wait = retryAfter
			}
			c.logf("client: %s %s attempt %d/%d in %v after: %v",
				method, path, attempt, c.cfg.MaxAttempts, wait.Round(time.Millisecond), lastErr)
			if err := c.sleep(ctx, wait); err != nil {
				return fmt.Errorf("client: cancelled while backing off (last error: %v): %w", lastErr, err)
			}
		}
		done, ra, err := c.attempt(ctx, method, path, body, key, out)
		if done {
			return err
		}
		lastErr, retryAfter = err, ra
		if ctx.Err() != nil {
			return fmt.Errorf("client: cancelled (last error: %v): %w", lastErr, ctx.Err())
		}
	}
	c.met.exhausted.Inc()
	return fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, c.cfg.MaxAttempts, lastErr)
}

// attempt issues one HTTP try. done=true means the outcome is final
// (success or permanent failure); otherwise err says why a retry is
// justified and retryAfter carries the server's wait hint, if any.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, key string, out any) (done bool, retryAfter time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return true, 0, fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	if e := c.epoch.Load(); e > 0 {
		req.Header.Set(epochHeader, strconv.FormatUint(e, 10))
	}
	c.met.attempts.Inc()
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Transport-level failure: refused, reset, black-holed until the
		// attempt timeout, response torn mid-body. All retryable — the
		// idempotency key makes the ambiguous ones safe.
		if actx.Err() != nil && ctx.Err() == nil {
			c.met.timeouts.Inc()
		}
		c.met.retryNet.Inc()
		return false, 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer func() {
		//lint:ignore errcheck response body close on a fully-consumed or abandoned response carries nothing actionable
		_ = resp.Body.Close()
	}()
	c.noteEpoch(resp.Header)
	// Bound error bodies too: a hostile or confused server must not balloon
	// the client.
	limited := io.LimitReader(resp.Body, 1<<20)
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(limited).Decode(out); err != nil {
			// A torn 200 body (reset mid-response) means the ack was lost in
			// flight; the retry replays the key and gets it back.
			if actx.Err() != nil && ctx.Err() == nil {
				c.met.timeouts.Inc()
			}
			c.met.retryNet.Inc()
			return false, 0, fmt.Errorf("client: %s %s: reading 200 body: %w", method, path, err)
		}
		return true, 0, nil
	}
	raw, _ := io.ReadAll(limited) //nolint:errcheck // best-effort error context
	if resp.StatusCode == http.StatusServiceUnavailable {
		if hint := resp.Header.Get(leaderHeader); hint != "" {
			// A follower rejecting ingest: retrying the same node cannot
			// succeed until a promotion, but the hint says where the
			// leader is. Final for this endpoint; a Pool re-routes.
			return true, 0, &LeaderRedirect{Leader: hint, Body: string(raw)}
		}
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
		// 429/503 are the daemon shedding load (full queue, shutdown,
		// poisoned journal); 5xx is transient server trouble. Honor the
		// Retry-After hint, capped so a confused server cannot park us.
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
				if retryAfter > c.cfg.MaxRetryAfter {
					retryAfter = c.cfg.MaxRetryAfter
				}
			}
		}
		c.met.retryStatus.Inc()
		return false, retryAfter, fmt.Errorf("client: %s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	default:
		// 400, 404, 413, ...: the request itself is wrong; retrying the
		// same bytes cannot succeed.
		return true, 0, &StatusError{Status: resp.StatusCode, Body: string(raw)}
	}
}

// noteEpoch ratchets the shared epoch from a response header; the epoch
// only ever moves forward, so a laggard node cannot roll it back.
func (c *Client) noteEpoch(h http.Header) {
	raw := h.Get(epochHeader)
	if raw == "" {
		return
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return
	}
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the highest replication epoch this client has seen.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// sleepCtx waits for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
