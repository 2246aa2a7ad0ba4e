package serve

// Deterministic-time tests of the degradation ladder and the rank
// timing fields. There is no time.Sleep anywhere in this file. An injected
// obs.Clock drives the breaker cooldown and the timing fields; rank
// deadlines are real contexts, and an expired one is already expired when
// the rank starts, so the ladder skips exact search whatever the
// scheduler does.

import (
	"context"
	"sync"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/obs"
)

// fakeBase returns the fake-clock epoch.
func fakeBase() time.Time {
	return time.Unix(1_700_000_000, 0)
}

func TestLadderDeterministic(t *testing.T) {
	cases := []struct {
		name string
		// votes ingested before ranking; nil exercises the prior.
		votes []crowd.Vote
		// budget is the rank's real timeout; 0 means no deadline at all;
		// negative means already expired.
		budget       time.Duration
		tripBreaker  bool
		wantAlgo     string
		wantDegraded bool
	}{
		{
			name:     "no votes answers the uninformed prior",
			budget:   10 * time.Second,
			wantAlgo: AlgoUninformed,
		},
		{
			name:     "ample budget reaches exact search",
			votes:    agreeingVotes(6, 2),
			budget:   10 * time.Second,
			wantAlgo: AlgoExactBranchBound,
		},
		{
			name:     "no deadline reaches exact search",
			votes:    agreeingVotes(6, 2),
			wantAlgo: AlgoExactBranchBound,
		},
		{
			name:         "open breaker degrades to the floor",
			votes:        agreeingVotes(6, 2),
			budget:       10 * time.Second,
			tripBreaker:  true,
			wantAlgo:     AlgoGreedy,
			wantDegraded: true,
		},
		{
			name:         "expired deadline still answers on the greedy floor",
			votes:        agreeingVotes(6, 2),
			budget:       -time.Second,
			wantAlgo:     AlgoGreedy,
			wantDegraded: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(6, 2)
			cfg.Seed = 42
			cfg.Clock = obs.NewFakeClock(fakeBase())
			s := newTestServer(t, cfg)
			if len(tc.votes) > 0 {
				if _, err := s.Ingest(tc.votes); err != nil {
					t.Fatal(err)
				}
			}
			if tc.tripBreaker {
				for i := 0; i < breakerThreshold; i++ {
					s.breaker.failure()
				}
			}
			ctx := context.Background()
			if tc.budget != 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.budget)
				defer cancel()
			}
			rr, err := s.RankContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Algorithm != tc.wantAlgo {
				t.Fatalf("algorithm = %s, want %s", rr.Algorithm, tc.wantAlgo)
			}
			if rr.Degraded != tc.wantDegraded {
				t.Fatalf("degraded = %v, want %v", rr.Degraded, tc.wantDegraded)
			}
			assertPermutation(t, 6, rr.Ranking)
		})
	}
}

// TestBreakerHalfOpenProbe walks the full breaker lifecycle through the
// server: trip it, watch ranks degrade while the cooldown runs, advance
// the fake clock past the cooldown, and confirm the single half-open
// probe re-enters exact search and closes the breaker on success.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clock := obs.NewFakeClock(fakeBase())
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 7
	cfg.Clock = clock
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(agreeingVotes(6, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerThreshold; i++ {
		s.breaker.failure()
	}

	// Inside the cooldown the exact rung is refused.
	rr, err := s.RankContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm == AlgoExactBranchBound {
		t.Fatalf("open breaker must skip exact search, got %s", rr.Algorithm)
	}
	if !rr.Degraded || rr.Breaker != "open" {
		t.Fatalf("want degraded response from an open breaker, got degraded=%v breaker=%s", rr.Degraded, rr.Breaker)
	}

	// Past the cooldown the next request is the half-open probe; exact
	// search succeeds and closes the breaker.
	clock.Advance(breakerCooldown + time.Second)
	rr, err = s.RankContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm != AlgoExactBranchBound {
		t.Fatalf("half-open probe should reach exact search, got %s", rr.Algorithm)
	}
	if rr.Degraded || rr.Breaker != "closed" {
		t.Fatalf("successful probe should close the breaker, got degraded=%v breaker=%s", rr.Degraded, rr.Breaker)
	}
}

// jumpClock simulates a host whose wall clock steps backward between
// reads (NTP correction, VM migration) while honouring the Clock
// contract that Since is monotonic and never negative. Any code path
// that computes an elapsed duration as clock.Now().Sub(start) instead
// of clock.Since(start) sees hours of negative time under this clock.
type jumpClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *jumpClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(-time.Hour)
	return c.now
}

func (c *jumpClock) Since(time.Time) time.Duration { return 5 * time.Millisecond }

// TestElapsedSurvivesWallClockJumps pins the monotonic-duration
// contract: RankResult.Elapsed and the /healthz duration fields stay
// positive even when the wall clock runs backward mid-request.
func TestElapsedSurvivesWallClockJumps(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Clock = &jumpClock{now: time.Unix(1_700_000_000, 0)}
	s := newTestServer(t, cfg)

	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Elapsed <= 0 {
		t.Fatalf("RankResult.Elapsed = %v; durations must come from Clock.Since, not Now().Sub", rr.Elapsed)
	}

	st := s.StatsSnapshot()
	if st.UptimeSeconds <= 0 {
		t.Fatalf("Stats.UptimeSeconds = %v; must be monotonic-safe", st.UptimeSeconds)
	}
	if st.RecoverySeconds < 0 {
		t.Fatalf("Stats.RecoverySeconds = %v; must never be negative", st.RecoverySeconds)
	}
}
