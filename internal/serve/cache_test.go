package serve

// Tests of the per-generation ranking cache. Like clock_test.go they run
// on an injected obs.FakeClock and never sleep: budgets are set relative
// to the fake now, so only the ladder's own arithmetic sees them.

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/feq"
	"crowdrank/internal/invariant"
	"crowdrank/internal/obs"
)

// cacheServer is a fake-clock server over n objects and 2 workers.
func cacheServer(t *testing.T, n int, seed uint64) (*Server, *obs.FakeClock) {
	t.Helper()
	clock := obs.NewFakeClock(fakeBase())
	cfg := DefaultConfig(n, 2)
	cfg.Seed = seed
	cfg.Clock = clock
	return newTestServer(t, cfg), clock
}

// rankWithin ranks under a budget relative to the fake now; a negative
// budget is an already-expired deadline.
func rankWithin(t *testing.T, s *Server, clock *obs.FakeClock, budget time.Duration) *RankResult {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), clock.Now().Add(budget))
	defer cancel()
	rr, err := s.RankContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

func tripBreaker(s *Server) {
	for i := 0; i < s.cfg.BreakerThreshold; i++ {
		s.breaker.failure()
	}
}

// cacheCounts reads the hit and miss counters and the number of search
// stage observations.
func cacheCounts(s *Server) (hits, misses, searches uint64) {
	return s.met.rankCacheHit.Value(), s.met.rankCacheMiss.Value(), s.met.stageSeconds[stageSearch].Count()
}

// TestRankCacheUpgradeOnly walks one generation up the ladder — greedy,
// then SAPS, then exact — and checks that each better rung replaces the
// cached answer while no later, tighter request ever gets a worse one.
func TestRankCacheUpgradeOnly(t *testing.T) {
	s, clock := cacheServer(t, 6, 42)
	if _, err := s.Ingest(noisyVotes(6, 2, 5)); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name        string
		budget      time.Duration
		tripBreaker bool
		wantAlgo    string
		wantHit     bool
	}{
		{"expired deadline searches the greedy floor", -time.Second, false, AlgoGreedy, false},
		{"expired deadline again is a greedy hit", -time.Second, false, AlgoGreedy, true},
		{"open breaker upgrades greedy to SAPS", 10 * time.Second, true, AlgoSAPS, false},
		{"open breaker again is a SAPS hit", 10 * time.Second, false, AlgoSAPS, true},
		{"expired deadline gets the cached SAPS", -time.Second, false, AlgoSAPS, true},
		{"closed breaker upgrades SAPS to exact", 10 * time.Second, false, AlgoExactHeldKarp, false},
		{"expired deadline gets the cached exact", -time.Second, false, AlgoExactHeldKarp, true},
		{"open breaker gets the cached exact", 10 * time.Second, true, AlgoExactHeldKarp, true},
	}
	var first *RankResult
	for _, st := range steps {
		if st.tripBreaker {
			tripBreaker(s)
		}
		if st.wantAlgo == AlgoExactHeldKarp && !st.wantHit {
			s.breaker.success()
		}
		hits, misses, searches := cacheCounts(s)
		rr := rankWithin(t, s, clock, st.budget)
		if rr.Algorithm != st.wantAlgo {
			t.Fatalf("%s: algorithm = %s, want %s", st.name, rr.Algorithm, st.wantAlgo)
		}
		if rr.Degraded != (st.wantAlgo != AlgoExactHeldKarp) {
			t.Fatalf("%s: degraded = %v for %s", st.name, rr.Degraded, rr.Algorithm)
		}
		if rr.Breaker != s.breaker.state() {
			t.Fatalf("%s: breaker = %s, want the fresh state %s", st.name, rr.Breaker, s.breaker.state())
		}
		h, m, sr := cacheCounts(s)
		if st.wantHit {
			if h != hits+1 || m != misses || sr != searches {
				t.Fatalf("%s: want one hit and no search, got hits %d→%d misses %d→%d searches %d→%d",
					st.name, hits, h, misses, m, searches, sr)
			}
		} else if h != hits || m != misses+1 || sr != searches+1 {
			t.Fatalf("%s: want one miss with one search, got hits %d→%d misses %d→%d searches %d→%d",
				st.name, hits, h, misses, m, searches, sr)
		}
		if first == nil {
			first = rr
		}
		if rr.Gen != first.Gen || rr.Votes != first.Votes {
			t.Fatalf("%s: gen/votes moved without ingest: %d/%d vs %d/%d", st.name, rr.Gen, rr.Votes, first.Gen, first.Votes)
		}
	}
}

// overrunCtx reports a deadline far ahead on the fake clock, so the
// ladder budgets the exact rung, yet it is already done: every search
// started under it fails at once, exactly like an overrun.
type overrunCtx struct {
	context.Context
	deadline time.Time
}

func (c overrunCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func newOverrunCtx(clock *obs.FakeClock) overrunCtx {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	cancel()
	return overrunCtx{Context: ctx, deadline: clock.Now().Add(10 * time.Second)}
}

// TestRankCacheNeverDowngrades covers the races the ladder cannot show
// sequentially: a slower request that searched a lower rung, or an older
// generation, finishing after the cache already holds something better
// or newer.
func TestRankCacheNeverDowngrades(t *testing.T) {
	s, clock := cacheServer(t, 6, 48)
	votes := noisyVotes(6, 2, 7)
	if _, err := s.Ingest(votes); err != nil {
		t.Fatal(err)
	}
	exact := rankWithin(t, s, clock, 10*time.Second)
	if exact.Algorithm != AlgoExactHeldKarp {
		t.Fatalf("want exact, got %s", exact.Algorithm)
	}
	s.remember(RankResult{Ranking: []int{5, 4, 3, 2, 1, 0}, Algorithm: AlgoGreedy, Degraded: true, Gen: exact.Gen, Votes: exact.Votes})
	s.remember(RankResult{Ranking: []int{5, 4, 3, 2, 1, 0}, Algorithm: AlgoSAPS, Degraded: true, Gen: exact.Gen, Votes: exact.Votes})
	if rr := rankWithin(t, s, clock, -time.Second); rr.Algorithm != AlgoExactHeldKarp || !slices.Equal(rr.Ranking, exact.Ranking) {
		t.Fatalf("a lower rung finishing late replaced the exact answer: got %s %v", rr.Algorithm, rr.Ranking)
	}

	flipped := votes[0]
	flipped.PrefersI = !flipped.PrefersI
	if _, err := s.Ingest([]crowd.Vote{flipped}); err != nil {
		t.Fatal(err)
	}
	greedy := rankWithin(t, s, clock, -time.Second)
	if greedy.Algorithm != AlgoGreedy || greedy.Gen <= exact.Gen {
		t.Fatalf("want a greedy answer at a newer generation, got %s at %d", greedy.Algorithm, greedy.Gen)
	}
	s.remember(*exact) // an answer for the older generation arriving late
	if rr := rankWithin(t, s, clock, -time.Second); rr.Algorithm != AlgoGreedy || rr.Gen != greedy.Gen {
		t.Fatalf("an older generation's answer was cached: got %s at %d", rr.Algorithm, rr.Gen)
	}
}

// TestRankCacheExactFailureServesCachedSAPS: with a cached SAPS answer,
// a request that cannot afford exact search gets it without claiming the
// breaker's half-open probe; the next request takes the probe, and when
// exact fails there, the cached SAPS answer is served without a SAPS rerun.
func TestRankCacheExactFailureServesCachedSAPS(t *testing.T) {
	clock := obs.NewFakeClock(fakeBase())
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 43
	cfg.Clock = clock
	cfg.ExactLimit = 2 // branch-and-bound, which honours cancellation
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(noisyVotes(6, 2, 6)); err != nil {
		t.Fatal(err)
	}
	tripBreaker(s)
	saps := rankWithin(t, s, clock, 10*time.Second)
	if saps.Algorithm != AlgoSAPS {
		t.Fatalf("open breaker should answer SAPS, got %s", saps.Algorithm)
	}
	clock.Advance(cfg.BreakerCooldown + time.Second)
	trips := s.met.breakerTrips.Value()
	_, misses, _ := cacheCounts(s)

	// 3ms affords no exact rung (half of it is under MinRungBudget).
	rr := rankWithin(t, s, clock, 3*time.Millisecond)
	if rr.Algorithm != AlgoSAPS || !slices.Equal(rr.Ranking, saps.Ranking) {
		t.Fatalf("want the cached SAPS answer, got %s %v", rr.Algorithm, rr.Ranking)
	}

	// The probe is still free: this request claims it, branch-and-bound
	// fails, the breaker re-opens, and the cached SAPS answer is served.
	rr, err := s.RankContext(newOverrunCtx(clock))
	if err != nil {
		t.Fatal(err)
	}
	if s.met.breakerTrips.Value() != trips+1 || rr.Breaker != "open" {
		t.Fatalf("the failed probe should re-open the breaker, got trips %d→%d, breaker %s",
			trips, s.met.breakerTrips.Value(), rr.Breaker)
	}
	if rr.Algorithm != AlgoSAPS || !rr.Degraded || !slices.Equal(rr.Ranking, saps.Ranking) {
		t.Fatalf("a failed exact probe should serve the cached SAPS answer, got %s %v", rr.Algorithm, rr.Ranking)
	}
	if _, m, _ := cacheCounts(s); m != misses {
		t.Fatal("serving the cached SAPS answer must not count as a fresh search")
	}
}

// TestRankCacheInvalidation: new votes (ingest or replication) move the
// generation and drop the cached answer; a duplicates-only batch does not.
func TestRankCacheInvalidation(t *testing.T) {
	s, clock := cacheServer(t, 6, 44)
	if _, err := s.Ingest(agreeingVotes(6, 1)); err != nil {
		t.Fatal(err)
	}
	exact := rankWithin(t, s, clock, 10*time.Second)
	if exact.Algorithm != AlgoExactHeldKarp {
		t.Fatalf("want exact, got %s", exact.Algorithm)
	}

	// Duplicates only: same generation, the exact answer stays cached.
	ack, err := s.Ingest(agreeingVotes(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 0 {
		t.Fatalf("resubmission should be all duplicates, got %+v", ack)
	}
	if rr := rankWithin(t, s, clock, -time.Second); rr.Algorithm != AlgoExactHeldKarp || rr.Gen != exact.Gen {
		t.Fatalf("duplicates-only batch must keep the cached exact answer, got %s at gen %d", rr.Algorithm, rr.Gen)
	}

	// A new vote moves the generation: an expired deadline now searches
	// the greedy floor afresh.
	if _, err := s.Ingest([]crowd.Vote{{Worker: 1, I: 0, J: 1, PrefersI: true}}); err != nil {
		t.Fatal(err)
	}
	rr := rankWithin(t, s, clock, -time.Second)
	if rr.Algorithm != AlgoGreedy || rr.Gen <= exact.Gen || rr.Votes != exact.Votes+1 {
		t.Fatalf("ingest must invalidate: got %s at gen %d with %d votes", rr.Algorithm, rr.Gen, rr.Votes)
	}

	// A follower applying a replicated record invalidates the same way.
	follower, fclock := cacheServer(t, 6, 44)
	if err := follower.ApplyReplicated(0, encodeBatch(agreeingVotes(6, 1))); err != nil {
		t.Fatal(err)
	}
	if fr := rankWithin(t, follower, fclock, 10*time.Second); fr.Algorithm != AlgoExactHeldKarp {
		t.Fatalf("follower: want exact, got %s", fr.Algorithm)
	}
	if err := follower.ApplyReplicated(1, encodeBatch([]crowd.Vote{{Worker: 1, I: 0, J: 1, PrefersI: true}})); err != nil {
		t.Fatal(err)
	}
	fr := rankWithin(t, follower, fclock, -time.Second)
	if fr.Algorithm != AlgoGreedy {
		t.Fatalf("a replicated record must invalidate the follower's cache, got %s", fr.Algorithm)
	}
	if !slices.Equal(fr.Ranking, rr.Ranking) || fr.Gen != rr.Gen {
		t.Fatalf("follower and leader disagree on the same votes: %v gen %d vs %v gen %d", fr.Ranking, fr.Gen, rr.Ranking, rr.Gen)
	}
}

// TestRankCacheMatchesFreshServer: a cached answer is exactly what a
// fresh server over the same votes computes, rung by rung, and it is a
// valid permutation.
func TestRankCacheMatchesFreshServer(t *testing.T) {
	votes := noisyVotes(8, 2, 9)
	for _, rungCase := range []struct {
		name   string
		budget time.Duration
		trip   bool
	}{
		{"greedy", -time.Second, false},
		{"saps", 10 * time.Second, true},
		{"exact", 10 * time.Second, false},
	} {
		t.Run(rungCase.name, func(t *testing.T) {
			s, clock := cacheServer(t, 8, 45)
			if _, err := s.Ingest(votes); err != nil {
				t.Fatal(err)
			}
			if rungCase.trip {
				tripBreaker(s)
			}
			rankWithin(t, s, clock, rungCase.budget)
			hits, _, _ := cacheCounts(s)
			cached := rankWithin(t, s, clock, rungCase.budget)
			if h, _, _ := cacheCounts(s); h != hits+1 {
				t.Fatal("second rank at the same generation should be a cache hit")
			}

			fresh, fclock := cacheServer(t, 8, 45)
			if _, err := fresh.Ingest(votes); err != nil {
				t.Fatal(err)
			}
			if rungCase.trip {
				tripBreaker(fresh)
			}
			want := rankWithin(t, fresh, fclock, rungCase.budget)
			if cached.Algorithm != want.Algorithm || !slices.Equal(cached.Ranking, want.Ranking) || !feq.Eq(cached.LogProb, want.LogProb) {
				t.Fatalf("cached %s %v (%g) != fresh %s %v (%g)",
					cached.Algorithm, cached.Ranking, cached.LogProb, want.Algorithm, want.Ranking, want.LogProb)
			}
			if err := invariant.VerifyRanking(8, cached.Ranking); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRankCacheResultIsolated: a library caller mutating a returned
// ranking cannot reach the cache.
func TestRankCacheResultIsolated(t *testing.T) {
	s, clock := cacheServer(t, 6, 46)
	if _, err := s.Ingest(agreeingVotes(6, 2)); err != nil {
		t.Fatal(err)
	}
	first := rankWithin(t, s, clock, 10*time.Second)
	want := slices.Clone(first.Ranking)
	for i := range first.Ranking {
		first.Ranking[i] = 0
	}
	second := rankWithin(t, s, clock, 10*time.Second)
	if !slices.Equal(second.Ranking, want) {
		t.Fatalf("mutating a returned ranking changed the cache: got %v, want %v", second.Ranking, want)
	}
	second.Ranking[0] = -1
	if third := rankWithin(t, s, clock, 10*time.Second); !slices.Equal(third.Ranking, want) {
		t.Fatalf("mutating a cached answer's copy changed the cache: got %v, want %v", third.Ranking, want)
	}
}

// TestRankCacheConcurrent races ranks against ingests (run under -race):
// every answer must be a permutation whose generation and vote count
// agree, and the settled state must rank like a fresh server.
func TestRankCacheConcurrent(t *testing.T) {
	s, clock := cacheServer(t, 6, 47)
	votes := noisyVotes(6, 2, 11)
	if _, err := s.Ingest(votes[:5]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 5; i < len(votes); i++ {
			if _, err := s.Ingest(votes[i : i+1]); err != nil {
				errs <- err
				return
			}
		}
	}()
	genVotes := sync.Map{} // gen -> vote count seen with it
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				budget := 10 * time.Second
				if (i+r)%2 == 0 {
					budget = -time.Second
				}
				ctx, cancel := context.WithDeadline(context.Background(), clock.Now().Add(budget))
				rr, err := s.RankContext(ctx)
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if err := invariant.VerifyRanking(6, rr.Ranking); err != nil {
					errs <- err
					return
				}
				if prev, loaded := genVotes.LoadOrStore(rr.Gen, rr.Votes); loaded && prev.(int) != rr.Votes {
					t.Errorf("gen %d served with %d and %d votes", rr.Gen, prev, rr.Votes)
				}
				rr.Ranking[0] = -1 // must not leak into the cache
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := rankWithin(t, s, clock, 10*time.Second)
	fresh, fclock := cacheServer(t, 6, 47)
	if _, err := fresh.Ingest(votes); err != nil {
		t.Fatal(err)
	}
	want := rankWithin(t, fresh, fclock, 10*time.Second)
	if !slices.Equal(got.Ranking, want.Ranking) || got.Algorithm != want.Algorithm {
		t.Fatalf("settled state ranks %s %v, fresh server %s %v", got.Algorithm, got.Ranking, want.Algorithm, want.Ranking)
	}
}
