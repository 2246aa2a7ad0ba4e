package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"crowdrank/internal/core"
	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
	"crowdrank/internal/search"
	"crowdrank/internal/truth"
)

// Algorithm names reported in RankResult.Algorithm. The acceptance
// contract is that a response always names the rung that actually
// produced the ranking.
const (
	// AlgoExactBranchBound is the exact rung: branch-and-bound proved the
	// ranking optimal within exactMaxSteps pair steps.
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
	// because the deadline had passed before exact search could start,
	// exact hit its work cap or overran the deadline, or the breaker
	// refused it.
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

// exactMaxSteps caps the exact rung's branch-and-bound in pair steps, 16
// poll intervals. Proofs on the pipeline's closures take either under a
// million steps or tens of millions, so the cap keeps the cheap ones and
// stops the hopeless ones (at n = 200, all) after a few milliseconds.
const exactMaxSteps = 1 << 20

// testExactHook, when set by a test, receives the pair steps of every
// exact attempt that was proven or capped. Always nil in production.
var testExactHook func(steps int)

// DefaultDeadline bounds a rank request that carries no deadline, and
// MaxDeadline caps the deadline any rank request may ask for.
const (
	DefaultDeadline = 2 * time.Second
	MaxDeadline     = 60 * time.Second
)

// Rank is RankContext under DefaultDeadline.
func (s *Server) Rank() (*RankResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDeadline)
	defer cancel()
	return s.RankContext(ctx)
}

// RankContext serves a ranking within ctx's deadline by walking the
// degradation ladder: the generation's polished floor (search.Greedy),
// cached or searched now, then exact search — branch-and-bound seeded with
// the floor and capped at exactMaxSteps pair steps — when the deadline has
// not passed yet and the breaker is closed. The floor answers whenever
// exact search does not, even after the deadline has expired. An expired
// deadline is absorbed by degradation — the call still returns a ranking;
// only an explicit cancellation (client gone) or a broken pipeline returns
// an error.
//
// Both rungs are deterministic at a fixed generation, so the best answer
// produced at the current generation is cached: a cached exact answer is
// served at once, a cached floor whenever exact search does not answer.
func (s *Server) RankContext(ctx context.Context) (*RankResult, error) {
	// All request timing goes through the injected clock: Since carries
	// the monotonic reading on the real clock (immune to wall jumps), and
	// tests drive the breaker deterministically with a fake.
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

	s.cacheMu.Lock()
	//lint:ignore lockcheck the shared closeMu read lock intentionally spans the whole inference so Close's drain waits for in-flight ranks instead of yanking state from under them, and cacheMu holds concurrent ranks on one closure build and floor search so each generation is computed once
	e, searched, err := s.fill(triggerRank)
	s.cacheMu.Unlock()
	if err != nil {
		return nil, err
	}
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
		return &r, nil
	}

	if e.votes == 0 {
		identity := make([]int, s.cfg.N)
		for i := range identity {
			identity[i] = i
		}
		return finish(RankResult{Ranking: identity, Algorithm: AlgoUninformed, Seed: s.cfg.Seed, Gen: e.gen})
	}
	// The cached answer counts as a miss when this rank searched it.
	outcome := s.met.rankCacheHit
	if searched {
		outcome = s.met.rankCacheMiss
	}
	// An expired deadline is checked before the breaker, so such a rank
	// neither claims a half-open probe nor counts as a failure.
	if !e.best.Degraded || ctx.Err() != nil || !s.breaker.allow() {
		outcome.Inc()
		return finish(*e.best)
	}

	// The exact rung, stopped by its work cap or the request's deadline.
	searchStart := s.clock.Now()
	sr, err := search.BranchAndBoundContext(ctx, e.closure, search.BranchAndBoundParams{
		MaxSteps:  exactMaxSteps,
		Incumbent: e.best.Ranking,
	})
	s.met.stageSeconds[stageSearch].ObserveDuration(s.clock.Since(searchStart))
	if sr != nil && testExactHook != nil {
		testExactHook(sr.Evaluations)
	}
	if err == nil {
		s.breaker.success()
		r := s.result(e, AlgoExactBranchBound, sr)
		s.remember(r)
		s.met.rankCacheMiss.Inc()
		return finish(r)
	}
	if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(ctxErr, context.DeadlineExceeded) {
		return nil, ctxErr
	}
	// Work cap or deadline overrun: either way this instance is not
	// answering exactly, which is what the breaker tracks.
	s.breaker.failure()
	outcome.Inc()
	return finish(*e.best)
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
	// the floor before. fill stores an entry only with its floor, so best
	// is nil only in the vote-less entry, whose uninformed prior is never
	// cached. A stored result is never mutated; responses copy it.
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

// fill returns the cache entry for the newest vote state; the caller holds
// cacheMu, and trigger names it in the closure-build counter. When the
// state moved since the last build it folds the new votes into the
// server's vote index and builds the Steps 1-3 closure (time spent
// indexing them counts as truth discovery); when the entry has no answer
// yet it searches the polished floor. searched reports that floor search.
// The state is read under cacheMu, so the entry's generation only ever
// moves forward. With no votes there is nothing to build or cache: the
// entry carries the generation alone.
func (s *Server) fill(trigger string) (e genEntry, searched bool, err error) {
	votes, gen := s.snapshot()
	if len(votes) == 0 {
		return genEntry{gen: gen}, false, nil
	}
	e = s.entry
	if e.closure == nil || e.gen != gen {
		if s.index == nil {
			idx, err := truth.NewIndex(s.cfg.N, s.cfg.M)
			if err != nil {
				return genEntry{}, false, fmt.Errorf("serve: building closure: %w", err)
			}
			s.index = idx
		}
		// The vote slice only grows once the server is open, so the index
		// holds a prefix of it and folds in just the votes that arrived
		// since the last build.
		start := s.clock.Now()
		if err := s.index.AddPacked(votes[s.index.Len():]); err != nil {
			return genEntry{}, false, fmt.Errorf("serve: building closure: %w", err)
		}
		indexed := s.clock.Since(start)
		opts := core.DefaultOptions()
		opts.Propagate.Parallelism = s.cfg.Parallelism
		cl, err := core.BuildClosureFrom(s.index, nil, opts, core.NewPipelineRNG(s.cfg.Seed))
		if err != nil {
			return genEntry{}, false, fmt.Errorf("serve: building closure: %w", err)
		}
		s.met.closureBuilds[trigger].Inc()
		// Stage histograms record rebuild cost only: a cache hit spent no
		// time in Steps 1-3, and observing zeros would flatten the latency
		// distribution the histogram exists to expose.
		s.met.stageSeconds[stageTruth].ObserveDuration(indexed + cl.Timings.TruthDiscovery)
		s.met.stageSeconds[stageSmooth].ObserveDuration(cl.Timings.Smoothing)
		s.met.stageSeconds[stagePropagate].ObserveDuration(cl.Timings.Propagation)
		e = genEntry{gen: gen, votes: len(votes), closure: cl.Closure}
	}
	if e.best != nil {
		return e, false, nil
	}
	start := s.clock.Now()
	sr, err := search.Greedy(e.closure, search.ObjectiveAllPairs)
	if err != nil {
		return genEntry{}, false, fmt.Errorf("serve: floor failed: %w", err)
	}
	s.met.stageSeconds[stageSearch].ObserveDuration(s.clock.Since(start))
	floor := s.result(e, AlgoGreedy, sr)
	e.best = &floor
	s.entry = e
	return e, true, nil
}

// remember caches r, an exact answer, in place of its generation's floor.
// Exact search scores at least the floor by optimality, so this is the only
// upgrade there is. r is dropped when a newer generation took the entry
// while r was searched, or another exact answer got there first.
func (s *Server) remember(r RankResult) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.entry.gen == r.Gen && s.entry.best.Degraded {
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
