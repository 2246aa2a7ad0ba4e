package serve_test

// Tests of the exact rung on simulated rounds: branch-and-bound capped by
// work answers the small instances it can prove and gives up on n=200 at
// the cap, whatever the deadline.

import (
	"context"
	"slices"
	"testing"
	"time"

	"crowdrank/internal/feq"
	"crowdrank/internal/search"
	"crowdrank/internal/serve"
)

// bbPollSteps mirrors internal/search's poll interval: the work cap is
// checked once per interval, so an attempt stops within one of it.
const bbPollSteps = 1 << 16

func newServer(t *testing.T, n int) *serve.Server {
	t.Helper()
	cfg := serve.DefaultConfig(n, 30)
	cfg.Seed = 1
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return s
}

// TestExactRungCappedAtScale: at n=200 no attempt proves an optimum, so
// under an hour-long deadline every rank is answered by the floor, each of
// the first BreakerThreshold ranks makes one attempt that stops at the
// work cap, and the breaker opens on the last of them.
func TestExactRungCappedAtScale(t *testing.T) {
	s := newServer(t, 200)
	if _, err := s.Ingest(simRound(t, 200, 0.1, 1)); err != nil {
		t.Fatal(err)
	}
	var attempts []int
	defer serve.SetExactHook(func(steps int) { attempts = append(attempts, steps) })()
	threshold := serve.BreakerThreshold
	var floor []int
	for i := 1; i <= threshold+1; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		rr, err := s.RankContext(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if rr.Algorithm != serve.AlgoGreedy || !rr.Degraded {
			t.Fatalf("rank %d: got %s (degraded %v), want the floor", i, rr.Algorithm, rr.Degraded)
		}
		if floor == nil {
			floor = rr.Ranking
		} else if !slices.Equal(rr.Ranking, floor) {
			t.Fatalf("rank %d: the floor moved without new votes", i)
		}
		wantBreaker := "closed"
		if i >= threshold {
			wantBreaker = "open"
		}
		if rr.Breaker != wantBreaker {
			t.Fatalf("rank %d: breaker %s, want %s", i, rr.Breaker, wantBreaker)
		}
		if want := min(i, threshold); len(attempts) != want {
			t.Fatalf("rank %d: %d exact attempts so far, want %d", i, len(attempts), want)
		}
	}
	for i, steps := range attempts {
		if steps < serve.ExactMaxSteps || steps > serve.ExactMaxSteps+bbPollSteps {
			t.Errorf("attempt %d spent %d pair steps, want the cap %d plus at most one poll interval", i+1, steps, serve.ExactMaxSteps)
		}
	}
}

// TestExactRungProvesSmall: at n=16 the capped branch-and-bound proves the
// optimum, the one Held-Karp finds.
func TestExactRungProvesSmall(t *testing.T) {
	s := newServer(t, 16)
	if _, err := s.Ingest(simRound(t, 16, 0.3, 1)); err != nil {
		t.Fatal(err)
	}
	rr, err := s.RankContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm != serve.AlgoExactBranchBound || rr.Degraded {
		t.Fatalf("got %s (degraded %v), want %s", rr.Algorithm, rr.Degraded, serve.AlgoExactBranchBound)
	}
	closure, err := serve.Closure(s)
	if err != nil {
		t.Fatal(err)
	}
	hk, err := search.HeldKarp(closure, 0, search.ObjectiveAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if !feq.Eq(rr.LogProb, hk.LogProb) {
		t.Fatalf("exact rung log_prob %v, Held-Karp optimum %v", rr.LogProb, hk.LogProb)
	}
}
