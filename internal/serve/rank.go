package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"crowdrank/internal/core"
	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
	"crowdrank/internal/obs"
	"crowdrank/internal/search"
	"crowdrank/internal/truth"
)

// Algorithm names reported in RankResult.Algorithm. The acceptance
// contract is that a response always names the rung that actually
// produced the ranking.
const (
	AlgoExactHeldKarp    = "exact:heldkarp"
	AlgoExactBranchBound = "exact:branchbound"
	// AlgoGreedy is the polished floor (search.Greedy): the net-score
	// order refined to an insertion local optimum.
	AlgoGreedy = "greedy"
	// AlgoUninformed is returned before any votes arrive: the identity
	// order under the uniform 0.5 prior, where every ranking is equally
	// likely.
	AlgoUninformed = "uninformed-prior"
)

// RankResult is one served ranking and the story of how it was produced.
type RankResult struct {
	// Ranking is the full ranking, most-preferred first.
	Ranking []int `json:"ranking"`
	// LogProb is the all-pairs log preference probability of Ranking.
	LogProb float64 `json:"log_prob"`
	// Algorithm names the ladder rung that produced the ranking.
	Algorithm string `json:"algorithm"`
	// Degraded is true when the floor answered instead of exact search —
	// because the deadline could not afford exact, exact overran, or the
	// breaker had it tripped.
	Degraded bool `json:"degraded"`
	// Votes is the deduplicated vote count the ranking was inferred from.
	Votes int `json:"votes"`
	// Seed is the pipeline seed; CertifyRanking with the same votes and
	// WithSeed(Seed) certifies this ranking against the same closure.
	Seed uint64 `json:"seed"`
	// Breaker is the exact-rung breaker state after this request
	// (closed, open, or half-open).
	Breaker string `json:"breaker"`
	// Elapsed is the server-side time spent producing the ranking.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Gen is the state generation the ranking was inferred from; it moves
	// whenever the deduplicated votes change.
	Gen uint64 `json:"gen"`
}

// etag is the HTTP entity tag of r: its generation and rung. The rung is
// part of the tag because the per-generation cache may upgrade the answer
// without the generation moving.
func (r *RankResult) etag() string {
	return `"` + strconv.FormatUint(r.Gen, 10) + "-" + r.Algorithm + `"`
}

// heldKarpEstimate guesses Held-Karp's runtime (O(2^n n^2) subset DP) at a
// conservative throughput, so the uncancellable exact rung is only entered
// when the budget clearly covers it.
func heldKarpEstimate(n int) time.Duration {
	const opsPerSecond = 200e6
	ops := float64(n) * float64(n) * math.Pow(2, float64(n))
	return time.Duration(ops / opsPerSecond * float64(time.Second))
}

// Rank is RankContext under the configured default deadline.
func (s *Server) Rank() (*RankResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultDeadline)
	defer cancel()
	return s.RankContext(ctx)
}

// RankContext serves a ranking within ctx's deadline by walking the
// degradation ladder: exact search (Held-Karp up to ExactLimit objects,
// branch-and-bound beyond) when the breaker is closed and the budget
// affords it, otherwise the polished floor (search.Greedy), which answers
// even after the deadline has expired. An expired deadline is absorbed by
// degradation — the call still returns a ranking; only an explicit
// cancellation (client gone) or a broken pipeline returns an error.
//
// Both rungs are deterministic at a fixed generation, so the best answer
// produced at the current generation is cached: a cached exact answer is
// served at once, a cached floor whenever exact search does not answer.
func (s *Server) RankContext(ctx context.Context) (*RankResult, error) {
	// All request timing goes through the injected clock: Since carries
	// the monotonic reading on the real clock (immune to wall jumps), and
	// tests drive the ladder deterministically with a fake.
	start := s.clock.Now()
	if s.closing.Load() {
		return nil, errShuttingDown
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing.Load() {
		return nil, errShuttingDown
	}
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err // cancelled outright; nobody is waiting for an answer
	}

	//lint:ignore lockcheck the shared closeMu read lock intentionally spans the whole inference (closure build and searchers) so Close's drain waits for in-flight ranks instead of yanking state from under them
	e, err := s.current()
	if err != nil {
		return nil, err
	}
	var searchStart time.Time // zero until a searcher runs
	// finish stamps the per-request fields on its own copy of r.
	finish := func(r RankResult) (*RankResult, error) {
		// Stage-boundary assertion (no-op unless built with
		// -tags crowdrank_invariants): every rung must return a
		// permutation.
		invariant.CheckRanking(s.cfg.N, r.Ranking)
		r.Ranking = slices.Clone(r.Ranking) // callers must not reach the cache through it
		r.Breaker = s.breaker.state()
		r.Elapsed = s.clock.Since(start)
		s.met.rankByAlgo[r.Algorithm].Inc()
		s.ahead.arm()
		s.met.rankSeconds.ObserveDuration(r.Elapsed)
		if r.Degraded {
			s.met.rankDegraded.Inc()
		}
		if !searchStart.IsZero() {
			s.met.stageSeconds[stageSearch].ObserveDuration(s.clock.Since(searchStart))
		}
		return &r, nil
	}

	if e.votes == 0 {
		identity := make([]int, s.cfg.N)
		for i := range identity {
			identity[i] = i
		}
		return finish(RankResult{Ranking: identity, Algorithm: AlgoUninformed, Seed: s.cfg.Seed, Gen: e.gen})
	}
	cached := func() (*RankResult, error) {
		s.met.rankCacheHit.Inc()
		return finish(*e.best)
	}
	searched := func(algo string, sr *search.Result) (*RankResult, error) {
		r := s.result(e, algo, sr)
		s.remember(r)
		s.met.rankCacheMiss.Inc()
		return finish(r)
	}
	if e.best != nil && !e.best.Degraded {
		return cached()
	}

	const obj = search.ObjectiveAllPairs
	deadline, hasDeadline := ctx.Deadline()
	remaining := time.Hour
	if hasDeadline {
		remaining = deadline.Sub(s.clock.Now())
	}

	// Rung 1: exact search. Decide affordability before consulting the
	// breaker so a half-open probe slot is never claimed and then wasted
	// on a budget skip.
	useHeldKarp := s.cfg.N <= s.cfg.ExactLimit
	exactBudget := time.Duration(float64(remaining) * s.cfg.ExactFraction)
	affordable := exactBudget >= s.cfg.MinRungBudget
	if useHeldKarp && hasDeadline {
		// Held-Karp cannot be cancelled mid-flight; require the budget to
		// clearly cover its estimated cost.
		affordable = exactBudget > 2*heldKarpEstimate(s.cfg.N)
	}
	if affordable && s.breaker.allow() {
		searchStart = s.clock.Now()
		if useHeldKarp {
			if sr, err := search.HeldKarp(e.closure, 0, obj); err == nil {
				s.breaker.success()
				return searched(AlgoExactHeldKarp, sr)
			}
			// Structurally impossible on a complete closure, but resolve
			// the breaker (and any probe) rather than wedge it.
			s.breaker.failure()
		} else {
			exactCtx, cancel := ctx, context.CancelFunc(func() {})
			if hasDeadline {
				exactCtx, cancel = context.WithTimeout(ctx, exactBudget)
			}
			sr, err := search.BranchAndBoundContext(exactCtx, e.closure, search.BranchAndBoundParams{})
			cancel()
			if err == nil {
				s.breaker.success()
				return searched(AlgoExactBranchBound, sr)
			}
			if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(ctxErr, context.DeadlineExceeded) {
				return nil, ctxErr
			}
			// Deadline overrun or a cycle-heavy instance branch-and-bound
			// refuses: either way this instance is not answering exactly
			// at this budget, which is what the breaker tracks.
			s.breaker.failure()
		}
	}
	// Exact did not answer (unaffordable, breaker open, or failed): the
	// cached floor is what recomputing it would return.
	if e.best != nil {
		return cached()
	}

	// Rung 2: the polished floor, which answers even after the deadline
	// has expired.
	if searchStart.IsZero() {
		searchStart = s.clock.Now()
	}
	sr, err := search.Greedy(e.closure, obj)
	if err != nil {
		return nil, fmt.Errorf("serve: floor failed: %w", err)
	}
	return searched(AlgoGreedy, sr)
}

// genEntry is the per-generation cache: the Steps 1-3 closure of one vote
// state and the best ranking any rung has produced from it. Both live in
// one entry under one lock, so they can never disagree about the
// generation they belong to.
type genEntry struct {
	gen     uint64
	votes   int
	closure *graph.PreferenceGraph
	// best is the best answer at gen — exact once exact search answered,
	// the floor before — nil until a search answers. The uninformed prior
	// is never cached. A stored result is never mutated; responses copy it.
	best *RankResult
}

// result is the cacheable RankResult of one search over e's closure.
func (s *Server) result(e genEntry, algo string, sr *search.Result) RankResult {
	return RankResult{
		Ranking:   sr.Path,
		LogProb:   sr.LogProb,
		Algorithm: algo,
		Degraded:  algo == AlgoGreedy,
		Votes:     e.votes,
		Seed:      s.cfg.Seed,
		Gen:       e.gen,
	}
}

// current returns the cache entry for the newest vote state, building its
// Steps 1-3 closure on the request path when the state moved since the
// last build.
func (s *Server) current() (genEntry, error) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	//lint:ignore lockcheck cacheMu deliberately holds concurrent ranks on one closure build (CPU-bound fan-out over worker goroutines) so identical generations are computed once and served from cache
	return s.currentLocked(s.met.closureBuilds[triggerRank])
}

// currentLocked is current for a caller holding cacheMu; builds counts the
// closure build, if one is needed. The state is read under cacheMu, so the
// entry's generation only ever moves forward. The build folds the new
// votes into the server's vote index; time spent indexing them counts as
// truth discovery. With no votes there is nothing to build or cache: the
// entry carries the generation alone.
func (s *Server) currentLocked(builds *obs.Counter) (genEntry, error) {
	votes, gen := s.snapshot()
	if len(votes) == 0 {
		return genEntry{gen: gen}, nil
	}
	if s.entry.closure != nil && s.entry.gen == gen {
		return s.entry, nil
	}
	if s.index == nil {
		idx, err := truth.NewIndex(s.cfg.N, s.cfg.M)
		if err != nil {
			return genEntry{}, fmt.Errorf("serve: building closure: %w", err)
		}
		s.index = idx
	}
	opts := core.DefaultOptions()
	opts.Propagate.Parallelism = s.cfg.Parallelism
	rng := core.NewPipelineRNG(s.cfg.Seed)
	// s.votes only grows once the server is open, so the index holds a
	// prefix of votes and folds in just the votes that arrived since the
	// last build.
	cl, err := core.BuildClosureFrom(s.index, votes[s.index.Len():], opts, rng)
	if err != nil {
		return genEntry{}, fmt.Errorf("serve: building closure: %w", err)
	}
	builds.Inc()
	// Stage histograms record rebuild cost only: a cache hit spent no
	// time in Steps 1-3, and observing zeros would flatten the latency
	// distribution the histogram exists to expose.
	s.met.stageSeconds[stageTruth].ObserveDuration(cl.Timings.TruthDiscovery)
	s.met.stageSeconds[stageSmooth].ObserveDuration(cl.Timings.Smoothing)
	s.met.stageSeconds[stagePropagate].ObserveDuration(cl.Timings.Propagation)
	s.entry = genEntry{gen: gen, votes: len(votes), closure: cl.Closure}
	return s.entry, nil
}

// remember offers a freshly searched result to the cache. The cache is
// upgrade-only: r replaces the cached answer only when the entry still
// belongs to r's generation and r is exact where the cached answer is the
// floor. Exact search scores at least the floor by optimality, so this is
// the only upgrade there is.
func (s *Server) remember(r RankResult) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.entry.closure == nil || s.entry.gen != r.Gen {
		return // a newer generation took the entry while r was searched
	}
	if s.entry.best == nil || (s.entry.best.Degraded && !r.Degraded) {
		s.entry.best = &r
	}
}

// cachedETag returns the entity tag of the ranking cached for the newest
// vote state, if a search has answered there yet.
func (s *Server) cachedETag() (string, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	_, gen := s.snapshot()
	if s.entry.best == nil || s.entry.gen != gen {
		return "", false
	}
	return s.entry.best.etag(), true
}
