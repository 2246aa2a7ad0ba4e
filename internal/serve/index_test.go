package serve

// Tests of the incrementally folded Steps 1-3: the server keeps one vote
// index across generations, and every closure it caches must equal a cold
// core.BuildClosure over the same votes, bit for bit — on the leader while
// other ranks search, after a restart from a snapshot plus a journal
// suffix, and on a follower fed the leader's records.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/invariant"
)

// streamBatches is a live-like vote stream over n objects and m workers:
// random pairs and workers, cut into batches of 20.
func streamBatches(n, m, batches int, seed uint64) [][]crowd.Vote {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	out := make([][]crowd.Vote, batches)
	for b := range out {
		for len(out[b]) < 20 {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j {
				continue
			}
			out[b] = append(out[b], crowd.Vote{Worker: rng.IntN(m), I: i, J: j, PrefersI: rng.Float64() < 0.7})
		}
	}
	return out
}

// rankAndCheckClosure ranks once, then checks that the closure cached for
// the newest generation equals a cold build over the server's votes.
func rankAndCheckClosure(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rr, err := s.RankContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, s.cfg.N, rr.Ranking)
	votes, gen := s.snapshot()
	s.cacheMu.Lock()
	e := s.entry
	s.cacheMu.Unlock()
	if e.gen != gen || e.closure == nil {
		t.Fatalf("cache holds gen %d, state is at gen %d", e.gen, gen)
	}
	opts := core.DefaultOptions()
	opts.Propagate.Parallelism = s.cfg.Parallelism
	cold, err := core.BuildClosure(s.cfg.N, s.cfg.M, unpacked(votes), opts, core.NewPipelineRNG(s.cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWeights(e.closure.N(), e.closure.Weight, cold.Closure.Weight); err != nil {
		t.Fatalf("gen %d (%d votes): folded closure differs from a cold build: %v", gen, len(votes), err)
	}
	for i := 0; i < s.cfg.N; i++ {
		if !slices.Equal(e.closure.Out(i), cold.Closure.Out(i)) {
			t.Fatalf("gen %d: out-list of %d differs from a cold build", gen, i)
		}
	}
}

// sameWeights compares two n x n weight functions bit for bit.
func sameWeights(n int, got, want func(i, j int) float64) error {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(got(i, j)) != math.Float64bits(want(i, j)) {
				return fmt.Errorf("w(%d,%d) = %v, want %v", i, j, got(i, j), want(i, j))
			}
		}
	}
	return nil
}

func TestFoldedClosureMatchesColdBuild(t *testing.T) {
	// n >= 64 with Parallelism 2 takes propagation's sharded walk.
	const n, m = 64, 8
	batches := streamBatches(n, m, 24, 1807)
	cfg := DefaultConfig(n, m)
	cfg.Seed = 1808
	cfg.Parallelism = 2
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")

	leader := newTestServer(t, cfg) // closed again by cleanup: Close is idempotent
	followerCfg := DefaultConfig(n, m)
	followerCfg.Seed = cfg.Seed
	follower := newTestServer(t, followerCfg)

	// Background ranks keep searching whichever generation is cached while
	// the foreground builds the next one.
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
			rr, err := leader.RankContext(rctx)
			cancel()
			if err == nil {
				if err := invariant.VerifyRanking(n, rr.Ranking); err != nil {
					t.Errorf("background rank: %v", err)
				}
			}
		}
	}()

	half := len(batches) / 2
	for b, batch := range batches[:half] {
		if _, err := leader.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyReplicated(uint64(b), encodeBatch("", 0, packed(batch))); err != nil {
			t.Fatal(err)
		}
		rankAndCheckClosure(t, leader)
		rankAndCheckClosure(t, follower)
		if b == half/2 {
			if _, err := leader.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop()
	wg.Wait()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the snapshot plus the journal suffix: the new index is
	// built from the recovered votes, then folds the rest.
	reopened := newTestServer(t, cfg)
	if rec := reopened.Recovered(); rec.SnapshotPath == "" || rec.Records == 0 {
		t.Fatalf("want a snapshot plus a journal suffix, got %+v", rec)
	}
	rankAndCheckClosure(t, reopened)
	for b, batch := range batches[half:] {
		if _, err := reopened.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyReplicated(uint64(half+b), encodeBatch("", 0, packed(batch))); err != nil {
			t.Fatal(err)
		}
		rankAndCheckClosure(t, reopened)
		rankAndCheckClosure(t, follower)
	}

	// Follower equals leader at the same generation.
	lv, lgen := reopened.snapshot()
	fv, fgen := follower.snapshot()
	if lgen != fgen || !slices.Equal(lv, fv) {
		t.Fatalf("follower at gen %d with %d votes, leader at gen %d with %d", fgen, len(fv), lgen, len(lv))
	}
	if err := sameWeights(n, follower.entry.closure.Weight, reopened.entry.closure.Weight); err != nil {
		t.Fatalf("follower closure differs from the leader's: %v", err)
	}
}
