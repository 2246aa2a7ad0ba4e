package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/obs"
	"crowdrank/internal/serve"
)

// testClient builds a client against url with instant fake sleeps,
// returning the recorded backoff schedule.
func testClient(t *testing.T, url string, mut func(*Config)) (*Client, *[]time.Duration) {
	t.Helper()
	cfg := Config{
		BaseURL:        url,
		Seed:           42,
		MaxAttempts:    4,
		BaseBackoff:    10 * time.Millisecond,
		MaxBackoff:     80 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		Metrics:        obs.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var mu sync.Mutex
	slept := []time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	return c, &slept
}

func votes(n int) []crowd.Vote {
	out := make([]crowd.Vote, n)
	for i := range out {
		out[i] = crowd.Vote{Worker: i % 3, I: i % 5, J: (i + 1) % 5, PrefersI: i%2 == 0}
	}
	return out
}

func ackBody(t *testing.T, w http.ResponseWriter, ack Ack) {
	t.Helper()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(ack); err != nil {
		t.Errorf("encoding ack: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty BaseURL")
	}
	if _, err := New(Config{BaseURL: "http://x", MaxAttempts: -1}); err == nil {
		t.Fatal("New accepted negative MaxAttempts")
	}
	if _, err := New(Config{BaseURL: "http://x", BaseBackoff: time.Second, MaxBackoff: time.Millisecond}); err == nil {
		t.Fatal("New accepted MaxBackoff < BaseBackoff")
	}
}

// TestRetryThenSuccess proves transient 5xx answers are retried and the
// idempotency key stays constant across every attempt of one batch.
func TestRetryThenSuccess(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	fails := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		n := len(keys)
		mu.Unlock()
		if n <= fails {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		ackBody(t, w, Ack{Accepted: 5, Seq: 1, TotalVotes: 5})
	}))
	defer srv.Close()

	c, slept := testClient(t, srv.URL, nil)
	ack, err := c.SubmitVotes(context.Background(), votes(5))
	if err != nil {
		t.Fatalf("SubmitVotes: %v", err)
	}
	if ack.Accepted != 5 || ack.Key == "" {
		t.Fatalf("ack = %+v, want 5 accepted and a key", ack)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 3 {
		t.Fatalf("attempts = %d, want 3", len(keys))
	}
	for _, k := range keys {
		if k != ack.Key {
			t.Fatalf("key changed across retries: %v vs ack key %s", keys, ack.Key)
		}
	}
	if len(*slept) != 2 {
		t.Fatalf("backoffs = %v, want 2 sleeps", *slept)
	}
	if got := c.met.retryStatus.Value(); got != 2 {
		t.Fatalf("retryStatus counter = %d, want 2", got)
	}
	if got := c.met.attempts.Value(); got != 3 {
		t.Fatalf("attempts counter = %d, want 3", got)
	}
}

// TestPermanentErrorNoRetry proves 4xx answers (other than 429) fail
// immediately with a StatusError.
func TestPermanentErrorNoRetry(t *testing.T) {
	var calls int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, `{"error":"body exceeds limit"}`, http.StatusRequestEntityTooLarge)
	}))
	defer srv.Close()

	c, slept := testClient(t, srv.URL, nil)
	_, err := c.SubmitVotes(context.Background(), votes(1))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want StatusError 413", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 || len(*slept) != 0 {
		t.Fatalf("calls=%d sleeps=%v, want exactly one attempt and no backoff", calls, *slept)
	}
}

// TestRetryAfterHonored proves a 429 Retry-After stretches the backoff to
// at least the advertised wait, capped by MaxRetryAfter.
func TestRetryAfterHonored(t *testing.T) {
	var calls int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		switch n {
		case 1:
			w.Header().Set("Retry-After", "2")
			http.Error(w, "queue full", http.StatusTooManyRequests)
		case 2:
			w.Header().Set("Retry-After", "3600") // way past MaxRetryAfter
			http.Error(w, "still full", http.StatusServiceUnavailable)
		default:
			ackBody(t, w, Ack{Accepted: 1, Seq: 1, TotalVotes: 1})
		}
	}))
	defer srv.Close()

	c, slept := testClient(t, srv.URL, func(cfg *Config) { cfg.MaxRetryAfter = 10 * time.Second })
	if _, err := c.SubmitVotes(context.Background(), votes(1)); err != nil {
		t.Fatalf("SubmitVotes: %v", err)
	}
	s := *slept
	if len(s) != 2 {
		t.Fatalf("sleeps = %v, want 2", s)
	}
	if s[0] < 2*time.Second {
		t.Fatalf("first backoff %v ignored Retry-After: 2", s[0])
	}
	if s[1] != 10*time.Second {
		t.Fatalf("second backoff %v, want the 10s MaxRetryAfter cap", s[1])
	}
}

// TestAttemptTimeout proves a stalled server burns one attempt (counted
// as a timeout), not the whole call.
func TestAttemptTimeout(t *testing.T) {
	var calls int
	var mu sync.Mutex
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			<-release // stall until the test ends
			return
		}
		ackBody(t, w, Ack{Accepted: 1, Seq: 1, TotalVotes: 1})
	}))
	defer srv.Close()
	// LIFO: the stalled handler must be released before srv.Close waits on it.
	defer close(release)

	c, _ := testClient(t, srv.URL, func(cfg *Config) { cfg.AttemptTimeout = 50 * time.Millisecond })
	if _, err := c.SubmitVotes(context.Background(), votes(1)); err != nil {
		t.Fatalf("SubmitVotes: %v", err)
	}
	if got := c.met.timeouts.Value(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestExhaustion proves the loop gives up after MaxAttempts and reports
// the last error.
func TestExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()

	c, slept := testClient(t, srv.URL, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.SubmitVotes(context.Background(), votes(1))
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
	if len(*slept) != 2 {
		t.Fatalf("sleeps = %v, want 2", *slept)
	}
	if got := c.met.exhausted.Value(); got != 1 {
		t.Fatalf("exhausted counter = %d, want 1", got)
	}
}

// TestContextCancelStopsRetries proves ctx cancellation wins over the
// retry budget.
func TestContextCancelStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c, _ := testClient(t, srv.URL, nil)
	c.sleep = func(ctx context.Context, _ time.Duration) error {
		cancel() // cancel during the first backoff
		return ctx.Err()
	}
	_, err := c.SubmitVotes(ctx, votes(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeterministicKeys proves two clients with the same seed draw the
// same key sequence, and one client never repeats a key.
func TestDeterministicKeys(t *testing.T) {
	mk := func() *Client {
		c, err := New(Config{BaseURL: "http://unused", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		ka, kb := a.NewKey(), b.NewKey()
		if ka != kb {
			t.Fatalf("draw %d: same seed diverged: %s vs %s", i, ka, kb)
		}
		if seen[ka] {
			t.Fatalf("draw %d: key %s repeated", i, ka)
		}
		seen[ka] = true
		if len(ka) != 32 {
			t.Fatalf("key %q is not 32 hex chars", ka)
		}
	}
}

// TestReplayedAckCounted proves a replayed=true ack increments the replay
// counter — the observable trace of a retry that hit the daemon's
// idempotency window.
func TestReplayedAckCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ackBody(t, w, Ack{Accepted: 2, Seq: 9, TotalVotes: 40, Replayed: true})
	}))
	defer srv.Close()

	c, _ := testClient(t, srv.URL, nil)
	ack, err := c.SubmitVotes(context.Background(), votes(2))
	if err != nil {
		t.Fatalf("SubmitVotes: %v", err)
	}
	if !ack.Replayed {
		t.Fatal("ack.Replayed lost in decoding")
	}
	if got := c.met.replayedAcks.Value(); got != 1 {
		t.Fatalf("replayedAcks counter = %d, want 1", got)
	}
}

// TestRank decodes the rank response and forwards the deadline hint, a
// sub-millisecond one as 1ms rather than the 0 the daemon refuses.
func TestRank(t *testing.T) {
	sent := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/rank" {
			t.Errorf("path = %s", r.URL.Path)
		}
		sent <- r.URL.Query().Get("deadline_ms")
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(Ranking{Ranking: []int{2, 0, 1}, Algorithm: "saps", Votes: 10, Seed: 5}); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	c, _ := testClient(t, srv.URL, nil)
	for _, tc := range []struct {
		deadline time.Duration
		want     string
	}{
		{250 * time.Millisecond, "250"},
		{300 * time.Microsecond, "1"},
	} {
		rk, err := c.Rank(context.Background(), tc.deadline)
		if err != nil {
			t.Fatalf("Rank(%v): %v", tc.deadline, err)
		}
		if got := <-sent; got != tc.want {
			t.Fatalf("Rank(%v) sent deadline_ms=%q, want %s", tc.deadline, got, tc.want)
		}
		if len(rk.Ranking) != 3 || rk.Algorithm != "saps" {
			t.Fatalf("rank = %+v", rk)
		}
	}
}

// TestRankMirrorsDaemon decodes a real daemon's rank response: every
// field of Ranking, the generation included, carries the served value.
func TestRankMirrorsDaemon(t *testing.T) {
	s, err := serve.New(serve.DefaultConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	votes := []crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}, {Worker: 0, I: 2, J: 3, PrefersI: true}}
	for _, v := range votes {
		if _, err := s.Ingest([]crowd.Vote{v}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c, _ := testClient(t, hs.URL, nil)
	rk, err := c.Rank(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Gen != 2 || rk.Gen != want.Gen || rk.Algorithm != want.Algorithm || rk.Votes != want.Votes || rk.Seed != want.Seed {
		t.Fatalf("client decoded %+v, daemon served %+v", rk, want)
	}
}

// TestJitterBounds proves the backoff schedule doubles its cap and stays
// within [0, MaxBackoff).
func TestJitterBounds(t *testing.T) {
	c, err := New(Config{BaseURL: "http://unused", Seed: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 20; n++ {
		capN := time.Duration(10*time.Millisecond) << (n - 1)
		if capN > 80*time.Millisecond || capN <= 0 {
			capN = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			if d := c.jitter(n); d < 0 || d >= capN {
				t.Fatalf("retry %d: jitter %v outside [0, %v)", n, d, capN)
			}
		}
	}
}
