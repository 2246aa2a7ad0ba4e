package serve

// Tests of the build-ahead goroutine (ahead.go). None of them sleeps:
// waitAheadIdle pins the builder's effects, testAheadHook holds a build
// open at a known point, and waitParked spins (yielding) until a goroutine
// is parked where the test needs it.

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdrank/internal/crowd"
)

// buildCounts reads the closure build counters by trigger.
func buildCounts(s *Server) (rank, ahead uint64) {
	return s.met.closureBuilds[triggerRank].Value(), s.met.closureBuilds[triggerAhead].Value()
}

// splitVotes cuts noisy votes into k consecutive batches.
func splitVotes(n, m int, seed uint64, k int) [][]crowd.Vote {
	votes := noisyVotes(n, m, seed)
	batches := make([][]crowd.Vote, k)
	for i := range batches {
		batches[i] = votes[i*len(votes)/k : (i+1)*len(votes)/k]
	}
	return batches
}

func mustIngest(t *testing.T, s *Server, votes []crowd.Vote) {
	t.Helper()
	if _, err := s.Ingest(votes); err != nil {
		t.Fatal(err)
	}
}

// buildGate holds every build-ahead at testAheadHook until released.
type buildGate struct {
	entered chan struct{}
	open    chan struct{}
	once    sync.Once
}

func (g *buildGate) release() { g.once.Do(func() { close(g.open) }) }

// gateBuilds installs a buildGate. Call it before constructing the
// server, and register t.Cleanup(g.release) after, so a failing test
// releases the gate before the server's Close waits for the builder.
func gateBuilds(t *testing.T) *buildGate {
	t.Helper()
	g := &buildGate{entered: make(chan struct{}), open: make(chan struct{})}
	testAheadHook = func() {
		select {
		case g.entered <- struct{}{}:
		case <-g.open:
		}
		<-g.open
	}
	t.Cleanup(func() { testAheadHook = nil })
	return g
}

// waitParked yields until some goroutine is parked in state (the wait
// reason in its stack header) with fn on its stack.
func waitParked(t *testing.T, state, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "["+state) && strings.Contains(g, fn) {
				return
			}
		}
		runtime.Gosched()
	}
	t.Fatalf("no goroutine parked in %s under %s", state, fn)
}

// sameServed fails unless got and want are the same served ranking, bit
// for bit.
func sameServed(t *testing.T, got, want *RankResult) {
	t.Helper()
	if !slices.Equal(got.Ranking, want.Ranking) || math.Float64bits(got.LogProb) != math.Float64bits(want.LogProb) ||
		got.Gen != want.Gen || got.Votes != want.Votes || got.etag() != want.etag() {
		t.Fatalf("served %s %v (%v) gen %d votes %d, want %s %v (%v) gen %d votes %d",
			got.etag(), got.Ranking, got.LogProb, got.Gen, got.Votes,
			want.etag(), want.Ranking, want.LogProb, want.Gen, want.Votes)
	}
}

// TestBuildAheadServesWhatAFreshServerComputes: after ingest → rank →
// ingest, the builder prepares the new generation and the next rank is a
// cache hit that equals, bit for bit, what a never-ranked server fed the
// same batches answers — on the floor and after an exact upgrade.
func TestBuildAheadServesWhatAFreshServerComputes(t *testing.T) {
	batches := splitVotes(8, 2, 61, 2)
	for _, tc := range []struct {
		name   string
		budget time.Duration
	}{
		{"floor", -time.Second},
		{"exact", 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := cacheServer(t, 8, 62)
			mustIngest(t, s, batches[0])
			rankWithin(t, s, -time.Second)
			mustIngest(t, s, batches[1])
			s.waitAheadIdle()
			if rank, ahead := buildCounts(s); rank != 1 || ahead != 1 {
				t.Fatalf("closure builds: rank %d ahead %d, want 1 and 1", rank, ahead)
			}
			hits, misses, searches := cacheCounts(s)
			got := rankWithin(t, s, tc.budget)
			h, m, sr := cacheCounts(s)
			if tc.budget < 0 && (h != hits+1 || m != misses || sr != searches) {
				t.Fatalf("want a cache hit with no search, got hits %d→%d misses %d→%d searches %d→%d",
					hits, h, misses, m, searches, sr)
			}
			if rank, _ := buildCounts(s); rank != 1 {
				t.Fatalf("the rank rebuilt a closure the builder had built (%d rank builds)", rank)
			}

			fresh := cacheServer(t, 8, 62)
			mustIngest(t, fresh, batches[0])
			mustIngest(t, fresh, batches[1])
			sameServed(t, got, rankWithin(t, fresh, tc.budget))
		})
	}
}

// TestBuildAheadArming: ingest-only traffic never builds, one served rank
// buys exactly one build however many generations follow, and a 304 is
// a served rank.
func TestBuildAheadArming(t *testing.T) {
	cfg := DefaultConfig(8, 2)
	cfg.Seed = 63
	s, ts := httpServer(t, cfg)
	batches := splitVotes(8, 2, 64, 6)
	for _, b := range batches[:2] {
		mustIngest(t, s, b)
	}
	s.waitAheadIdle()
	if rank, ahead := buildCounts(s); rank != 0 || ahead != 0 {
		t.Fatalf("ingest-only traffic built closures: rank %d ahead %d", rank, ahead)
	}

	getRank(t, ts.URL, 1)
	mustIngest(t, s, batches[2])
	mustIngest(t, s, batches[3])
	s.waitAheadIdle()
	if rank, ahead := buildCounts(s); rank != 1 || ahead != 1 {
		t.Fatalf("one served rank: rank %d ahead %d builds, want 1 and 1", rank, ahead)
	}

	// A 304 is a served rank too. Rank (arming), let the next batch
	// consume that flag, then answer a conditional GET for the generation
	// the builder prepared: only that 304 can arm the last batch's build.
	getRank(t, ts.URL, 1)
	mustIngest(t, s, batches[4])
	s.waitAheadIdle()
	_, before := buildCounts(s)
	tag, ok := s.cachedETag()
	if !ok {
		t.Fatal("the builder left nothing cached for the newest generation")
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/rank", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", tag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match with the cached tag: status %d, want 304", resp.StatusCode)
	}
	mustIngest(t, s, batches[5])
	s.waitAheadIdle()
	if _, after := buildCounts(s); after != before+1 {
		t.Fatalf("a 304 must arm the builder: ahead builds %d→%d", before, after)
	}
}

// TestBuildAheadRankJoinsBuild: a rank that arrives while the builder
// holds the generation waits for it and is served its floor, so the
// generation is searched exactly once.
func TestBuildAheadRankJoinsBuild(t *testing.T) {
	g := gateBuilds(t)
	s := cacheServer(t, 8, 65)
	t.Cleanup(g.release)
	batches := splitVotes(8, 2, 66, 2)
	mustIngest(t, s, batches[0])
	rankWithin(t, s, -time.Second)
	mustIngest(t, s, batches[1])
	<-g.entered
	hits, misses, searches := cacheCounts(s)

	// An expired deadline skips exact search: the rank wants the floor.
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	got := make(chan *RankResult, 1)
	go func() {
		rr, err := s.RankContext(ctx)
		if err != nil {
			t.Error(err)
		}
		got <- rr
	}()
	waitParked(t, "sync.Mutex.Lock", "(*Server).RankContext(")
	g.release()
	rr := <-got
	s.waitAheadIdle()
	if rr == nil {
		t.FailNow()
	}
	if h, m, sr := cacheCounts(s); h != hits+1 || m != misses || sr != searches+1 {
		t.Fatalf("want the builder's one search served as a hit, got hits %d→%d misses %d→%d searches %d→%d",
			hits, h, misses, m, searches, sr)
	}
	if rank, ahead := buildCounts(s); rank != 1 || ahead != 1 {
		t.Fatalf("closure builds: rank %d ahead %d, want 1 and 1", rank, ahead)
	}
	fresh := cacheServer(t, 8, 65)
	mustIngest(t, fresh, batches[0])
	mustIngest(t, fresh, batches[1])
	sameServed(t, rr, rankWithin(t, fresh, -time.Second))
}

// TestBuildAheadCloseMidBuild: Close waits for a build in flight, returns,
// and leaves no goroutine behind.
func TestBuildAheadCloseMidBuild(t *testing.T) {
	g := gateBuilds(t)
	runtime.GC()
	baseline := runtime.NumGoroutine()
	s := cacheServer(t, 8, 67)
	t.Cleanup(g.release)
	batches := splitVotes(8, 2, 68, 2)
	mustIngest(t, s, batches[0])
	rankWithin(t, s, -time.Second)
	mustIngest(t, s, batches[1])
	<-g.entered

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitParked(t, "chan receive", "(*Server).Close(")
	g.release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rank(); err == nil {
		t.Fatal("rank after Close must fail")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before the server, %d after Close\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestBuildAheadFollower: a follower's replicated records arm and build
// exactly like ingest.
func TestBuildAheadFollower(t *testing.T) {
	batches := splitVotes(8, 2, 69, 2)
	follower := cacheServer(t, 8, 70)
	if err := follower.ApplyReplicated(0, encodeBatch("", 0, packed(batches[0]))); err != nil {
		t.Fatal(err)
	}
	rankWithin(t, follower, -time.Second)
	if err := follower.ApplyReplicated(1, encodeBatch("", 0, packed(batches[1]))); err != nil {
		t.Fatal(err)
	}
	follower.waitAheadIdle()
	if rank, ahead := buildCounts(follower); rank != 1 || ahead != 1 {
		t.Fatalf("closure builds: rank %d ahead %d, want 1 and 1", rank, ahead)
	}
	hits, _, _ := cacheCounts(follower)
	got := rankWithin(t, follower, -time.Second)
	if h, _, _ := cacheCounts(follower); h != hits+1 {
		t.Fatal("the follower's rank after a built-ahead generation should be a cache hit")
	}
	leader := cacheServer(t, 8, 70)
	mustIngest(t, leader, batches[0])
	mustIngest(t, leader, batches[1])
	sameServed(t, got, rankWithin(t, leader, -time.Second))
}
