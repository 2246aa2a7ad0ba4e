package crowdrank

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSoakLargeScale drives the full pipeline at the paper's maximum scale
// (n = 1000, r = 0.1 — half a million votes) and asserts the paper-level
// quality and the absence of pathological slowdowns. Skipped in -short
// mode.
func TestSoakLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const n = 1000
	plan, err := PlanTasksRatio(n, 0.1, 2024)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(2025)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Votes) != plan.L*cfg.WorkersPerTask {
		t.Fatalf("votes = %d", len(round.Votes))
	}

	start := time.Now()
	res, err := Infer(plan.N, cfg.Workers, round.Votes,
		WithSeed(2026), WithSearch(SearchSAPS), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	acc, err := Accuracy(res.Ranking, round.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 0.95 at n=1000, r=0.1. Allow slack for seed variation.
	if acc < 0.93 {
		t.Errorf("accuracy = %v, want >= 0.93 (paper reports 0.95)", acc)
	}
	// Generous wall-clock ceiling: the paper's C++ testbed needed ~2
	// minutes; anything beyond that here indicates a regression.
	if elapsed > 2*time.Minute {
		t.Errorf("inference took %v", elapsed)
	}
	t.Logf("n=%d l=%d votes=%d accuracy=%.4f elapsed=%v (steps: %+v)",
		n, plan.L, len(round.Votes), acc, elapsed, res.Timings)
}

// TestSoakRepeatedSeeds verifies accuracy stability across seeds at a
// medium scale: the mean must stay high and no single seed may collapse.
func TestSoakRepeatedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const n, runs = 100, 8
	var sum, min float64 = 0, 1
	for s := 0; s < runs; s++ {
		plan, err := PlanTasksRatio(n, 0.1, uint64(s)*31+1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSimConfig(uint64(s)*37 + 2)
		round, err := SimulateVotes(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Infer(plan.N, cfg.Workers, round.Votes, WithSeed(uint64(s)*41+3))
		if err != nil {
			t.Fatal(err)
		}
		acc, err := Accuracy(res.Ranking, round.GroundTruth)
		if err != nil {
			t.Fatal(err)
		}
		sum += acc
		if acc < min {
			min = acc
		}
	}
	mean := sum / runs
	if mean < 0.88 {
		t.Errorf("mean accuracy over %d seeds = %v", runs, mean)
	}
	if min < 0.82 {
		t.Errorf("worst-seed accuracy = %v", min)
	}
	t.Logf("n=%d over %d seeds: mean=%.4f min=%.4f", n, runs, mean, min)
}

// TestSoakDaemon hammers a journaled RankServer with concurrent ingest
// goroutines and periodic deadline-bounded rank queries for a bounded
// wall-clock, then asserts every request succeeded or was backpressured
// cleanly and that the daemon leaks no goroutines across its lifetime.
func TestSoakDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		n, m     = 30, 8
		ingester = 6
		duration = 3 * time.Second
	)
	// Goroutine baseline taken before the server exists so anything the
	// daemon spawns and fails to reap is visible after Close.
	runtime.GC()
	baseline := runtime.NumGoroutine()

	cfg := DefaultServeConfig(n, m)
	cfg.Seed = 4242
	cfg.JournalPath = t.TempDir() + "/soak.wal"
	cfg.Parallelism = 2
	srv, err := NewRankServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ingested int
		ranked   int
		degraded int
	)
	stop := time.Now().Add(duration)
	for g := 0; g < ingester; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(worker)+1, 77))
			for time.Now().Before(stop) {
				batch := make([]Vote, 0, 16)
				for k := 0; k < 16; k++ {
					i := rng.IntN(n)
					j := rng.IntN(n - 1)
					if j >= i {
						j++
					}
					batch = append(batch, Vote{Worker: worker, I: i, J: j, PrefersI: rng.Float64() < 0.7})
				}
				if _, err := srv.Ingest(batch); err != nil {
					t.Errorf("soak ingest failed: %v", err)
					return
				}
				mu.Lock()
				ingested += len(batch)
				mu.Unlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			res, err := srv.Rank()
			if err != nil {
				t.Errorf("soak rank failed: %v", err)
				return
			}
			if len(res.Ranking) != n {
				t.Errorf("soak rank returned %d objects, want %d", len(res.Ranking), n)
				return
			}
			mu.Lock()
			ranked++
			if res.Degraded {
				degraded++
			}
			mu.Unlock()
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ranked == 0 || ingested == 0 {
		t.Fatalf("soak did no work: %d ingested, %d ranked", ingested, ranked)
	}
	t.Logf("soak: %d votes ingested by %d goroutines, %d rankings served (%d degraded)",
		ingested, ingester, ranked, degraded)

	// Leak check: allow the runtime a few GC cycles to reap finished
	// goroutines, then require the count back at (or below) baseline plus
	// slack for the test runtime's own machinery.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before daemon, %d after Close\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
