package crowdrank_test

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"crowdrank"
	"crowdrank/internal/feq"
	"crowdrank/internal/invariant"
	"crowdrank/internal/obs"
)

// TestRankServerCertifiable: a daemon-served ranking certifies against the
// closure CertifyRanking rebuilds under the server's seed — the public
// contract documented on RankServer.
func TestRankServerCertifiable(t *testing.T) {
	const n, m = 6, 3
	cfg := crowdrank.DefaultServeConfig(n, m)
	cfg.Seed = 99
	srv, err := crowdrank.NewRankServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	}()

	var votes []crowdrank.Vote
	for w := 0; w < m; w++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				votes = append(votes, crowdrank.Vote{Worker: w, I: i, J: j, PrefersI: true})
			}
		}
	}
	ack, err := crowdrank.IngestVotes(srv, votes)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != len(votes) {
		t.Fatalf("want %d accepted, got %+v", len(votes), ack)
	}

	res, err := srv.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 99 {
		t.Fatalf("response should report the configured seed, got %d", res.Seed)
	}
	cert, err := crowdrank.CertifyRanking(n, m, votes, res.Ranking, crowdrank.WithSeed(res.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Gap < 0 {
		t.Fatalf("certificate gap must be non-negative, got %v", cert.Gap)
	}
	// An exact-rung answer must certify as optimal on its own closure.
	if res.Algorithm == "exact:heldkarp" && cert.Gap > 1e-6 {
		t.Fatalf("exact answer should certify optimal, gap %v", cert.Gap)
	}
}

// TestRankServerCachedRankingCertifies: an answer served from the
// per-generation cache is the one the first request searched, and it
// certifies under WithSeed(result.Seed) with the served log_prob as its
// score. The fake clock budgets the exact rung out (Held-Karp at n=16
// needs a larger budget), so SAPS answers and is cached.
func TestRankServerCachedRankingCertifies(t *testing.T) {
	const n, m = 16, 3
	clock := obs.NewFakeClock(time.Now().Add(1000 * time.Hour))
	cfg := crowdrank.DefaultServeConfig(n, m)
	cfg.Seed = 7
	cfg.Clock = clock
	srv, err := crowdrank.NewRankServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	}()
	rng := rand.New(rand.NewPCG(3, 4))
	var votes []crowdrank.Vote
	for w := 0; w < m; w++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				votes = append(votes, crowdrank.Vote{Worker: w, I: i, J: j, PrefersI: rng.Float64() < 0.7})
			}
		}
	}
	if _, err := crowdrank.IngestVotes(srv, votes); err != nil {
		t.Fatal(err)
	}
	rank := func() *crowdrank.ServeRankResult {
		ctx, cancel := context.WithDeadline(context.Background(), clock.Now().Add(300*time.Millisecond))
		defer cancel()
		res, err := srv.RankContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := rank()
	cached := rank()
	if first.Algorithm != "saps" || cached.Algorithm != first.Algorithm || cached.Gen != first.Gen {
		t.Fatalf("want SAPS twice at one generation, got %s (gen %d) then %s (gen %d)",
			first.Algorithm, first.Gen, cached.Algorithm, cached.Gen)
	}
	if !slices.Equal(cached.Ranking, first.Ranking) || !feq.Eq(cached.LogProb, first.LogProb) {
		t.Fatalf("cached answer %v (%g) differs from the searched one %v (%g)",
			cached.Ranking, cached.LogProb, first.Ranking, first.LogProb)
	}
	if err := invariant.VerifyRanking(n, cached.Ranking); err != nil {
		t.Fatal(err)
	}
	cert, err := crowdrank.CertifyRanking(n, m, votes, cached.Ranking, crowdrank.WithSeed(cached.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if !feq.Close(cert.Score, cached.LogProb, 1e-9) {
		t.Fatalf("certified score %g != served log_prob %g", cert.Score, cached.LogProb)
	}
}
