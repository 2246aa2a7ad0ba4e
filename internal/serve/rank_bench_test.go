package serve_test

import (
	"context"
	"testing"
	"time"

	"crowdrank"
	"crowdrank/internal/crowd"
	"crowdrank/internal/serve"
)

// Mixed-shaped universe: one r=0.1 round over n=200 objects and m=30
// workers preloaded, then 20-vote batches, the shape of crowdload's mixed
// workload.
const (
	mixedN, mixedM = 200, 30
	mixedRatio     = 0.1
	mixedBatch     = 20
)

// simRound returns one simulated round of the given selection ratio over
// n objects and the default 30 workers.
func simRound(tb testing.TB, n int, ratio float64, seed uint64) []crowd.Vote {
	tb.Helper()
	plan, err := crowdrank.PlanTasksRatio(n, ratio, seed)
	if err != nil {
		tb.Fatal(err)
	}
	round, err := crowdrank.SimulateVotes(plan, crowdrank.DefaultSimConfig(seed))
	if err != nil {
		tb.Fatal(err)
	}
	votes := make([]crowd.Vote, len(round.Votes))
	for i, v := range round.Votes {
		votes[i] = crowd.Vote(v)
	}
	return votes
}

// mixedRounds returns simulated r=0.1 rounds concatenated until they hold
// want votes; the first round is the preload.
func mixedRounds(b *testing.B, want int) (preload int, votes []crowd.Vote) {
	b.Helper()
	for seed := uint64(1); len(votes) < want; seed++ {
		votes = append(votes, simRound(b, mixedN, mixedRatio, seed)...)
		if preload == 0 {
			preload = len(votes)
			want += preload
		}
	}
	return preload, votes
}

// BenchmarkRankAfterIngest times the rank that follows an ingest, the
// mixed workload's request: each iteration ingests 20 votes, waits off the
// timer until the build-ahead has folded that generation into the cache,
// and then times RankContext. Before the timer starts, ranks run until
// their exact attempts, each stopped by the 2 ms deadline or the work cap,
// have opened the breaker, so the timed rank is served the polished floor,
// the rung mixed serves once its breaker has opened. It reports rank_ms,
// the timed rank, and build_ms, ingest through build-ahead idle.
func BenchmarkRankAfterIngest(b *testing.B) {
	preload, votes := mixedRounds(b, b.N*mixedBatch)
	cfg := serve.DefaultConfig(mixedN, mixedM)
	cfg.Seed = 1
	s, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			b.Error(err)
		}
	}()
	rank := func() *serve.RankResult {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		rr, err := s.RankContext(ctx)
		if err != nil {
			b.Fatal(err)
		}
		return rr
	}
	if _, err := s.Ingest(votes[:preload]); err != nil {
		b.Fatal(err)
	}
	// The last of these ranks arms the builder for the first batch.
	for ranks := 0; rank().Breaker != "open"; ranks++ {
		if ranks == 10 {
			b.Fatal("breaker still closed after 10 ranks")
		}
	}
	var build, ranked time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		start := time.Now()
		batch := votes[preload+i*mixedBatch : preload+(i+1)*mixedBatch]
		if _, err := s.Ingest(batch); err != nil {
			b.Fatal(err)
		}
		serve.WaitAheadIdle(s)
		build += time.Since(start)
		b.StartTimer()
		start = time.Now()
		rank()
		ranked += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(ranked.Microseconds())/1e3/float64(b.N), "rank_ms")
	b.ReportMetric(float64(build.Microseconds())/1e3/float64(b.N), "build_ms")
}

// BenchmarkRankWarmUp times crowdload's warm-up on a fresh server: one
// r=0.3 round over n=200 objects and m=30 workers is ingested off the
// timer, then ranks under a 250 ms deadline run until the exact rung's
// breaker has opened. Every exact attempt at n=200 ends at the work cap,
// so the warm-up costs the first closure build plus BreakerThreshold
// capped attempts. It reports warmup_ms, the timed ranks, and bb_steps,
// the pair steps those attempts spent.
func BenchmarkRankWarmUp(b *testing.B) {
	votes := simRound(b, mixedN, 0.3, 1)
	steps := 0
	defer serve.SetExactHook(func(n int) { steps += n })()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := serve.DefaultConfig(mixedN, mixedM)
		cfg.Seed = 1
		s, err := serve.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Ingest(votes); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for ranks := 0; ; ranks++ {
			if ranks == 10 {
				b.Fatal("breaker still closed after 10 ranks")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
			rr, err := s.RankContext(ctx)
			cancel()
			if err != nil {
				b.Fatal(err)
			}
			if rr.Breaker == "open" {
				break
			}
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "warmup_ms")
	b.ReportMetric(float64(steps)/float64(b.N), "bb_steps")
}
