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

// mixedRounds returns simulated r=0.1 rounds concatenated until they hold
// want votes; the first round is the preload.
func mixedRounds(b *testing.B, want int) (preload int, votes []crowd.Vote) {
	b.Helper()
	for seed := uint64(1); len(votes) < want; seed++ {
		plan, err := crowdrank.PlanTasksRatio(mixedN, mixedRatio, seed)
		if err != nil {
			b.Fatal(err)
		}
		round, err := crowdrank.SimulateVotes(plan, crowdrank.DefaultSimConfig(seed))
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range round.Votes {
			votes = append(votes, crowd.Vote(v))
		}
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
// and then times RankContext. The 2 ms deadline affords no exact rung, so
// the rank is served the polished floor, the rung mixed serves once its
// breaker has opened. It reports rank_ms, the timed rank, and build_ms,
// ingest through build-ahead idle.
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
	rank := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		if _, err := s.RankContext(ctx); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Ingest(votes[:preload]); err != nil {
		b.Fatal(err)
	}
	rank() // arms the builder for the first batch
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
