// Package core glues the paper's result-inference pipeline (Section V) into
// a single call: truth discovery (Step 1), preference smoothing (Step 2),
// preference propagation into the transitive closure (Step 3), and
// best-ranking search (Step 4). Infer is BuildClosure's Steps 1-3 followed
// by one Search over the closure; callers that rank one closure several
// ways call the two halves themselves. Options.Objective governs every
// Step 4 searcher, SAPS included. The pipeline records per-step wall-clock
// timings — the breakdown Figure 4 discusses — and per-step diagnostics
// such as the 1-edge count and truth-discovery iterations.
package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
	"crowdrank/internal/propagate"
	"crowdrank/internal/search"
	"crowdrank/internal/smooth"
	"crowdrank/internal/truth"
)

// Searcher selects the Step 4 algorithm Search runs; each one optimizes
// Options.Objective.
type Searcher int

const (
	// SearcherAuto picks an exact method for small instances (Held-Karp up
	// to 16 objects) and SAPS beyond.
	SearcherAuto Searcher = iota
	// SearcherSAPS forces the simulated-annealing path search.
	SearcherSAPS
	// SearcherTAPS forces the paper's exact threshold algorithm
	// (factorial space; n <= ~9).
	SearcherTAPS
	// SearcherHeldKarp forces the exact subset DP (n <= ~20).
	SearcherHeldKarp
	// SearcherBruteForce forces full enumeration (n <= ~10).
	SearcherBruteForce
	// SearcherBranchBound forces the exact branch-and-bound for the
	// all-pairs objective; effective on near-consistent closures well
	// beyond Held-Karp's n <= 20, but refuses cycle-heavy instances.
	SearcherBranchBound
)

func (s Searcher) String() string {
	switch s {
	case SearcherAuto:
		return "auto"
	case SearcherSAPS:
		return "saps"
	case SearcherTAPS:
		return "taps"
	case SearcherHeldKarp:
		return "heldkarp"
	case SearcherBruteForce:
		return "bruteforce"
	case SearcherBranchBound:
		return "branchbound"
	default:
		return fmt.Sprintf("Searcher(%d)", int(s))
	}
}

// valid reports whether s is one of the searchers above.
func (s Searcher) valid() bool { return s >= SearcherAuto && s <= SearcherBranchBound }

// autoExactLimit is the largest instance SearcherAuto solves exactly.
const autoExactLimit = 16

// Options configures the full pipeline. The zero value is not usable; call
// DefaultOptions and adjust.
type Options struct {
	Truth     truth.Params
	Smooth    smooth.Params
	Propagate propagate.Params
	// SAPS tunes the annealer; its Objective is ignored in favor of
	// Options.Objective.
	SAPS     search.SAPSParams
	Searcher Searcher
	// Objective selects the Step 4 path-preference reading (see
	// search.Objective) for every searcher: Search overrides
	// SAPS.Objective with it, and branch-and-bound rejects anything but
	// the all-pairs objective.
	Objective search.Objective
	// PolishSweeps, when positive, refines the Step 4 result with up to
	// this many insertion-move local-search sweeps (search.InsertionPolish)
	// — a strictly larger neighborhood than SAPS's swaps. 0 disables.
	PolishSweeps int
}

// DefaultOptions returns the pipeline configuration used throughout the
// experiment reproduction.
func DefaultOptions() Options {
	return Options{
		Truth:     truth.DefaultParams(),
		Smooth:    smooth.DefaultParams(),
		Propagate: propagate.DefaultParams(),
		SAPS:      search.DefaultSAPSParams(),
		Searcher:  SearcherAuto,
		Objective: search.ObjectiveAllPairs,
	}
}

// StepTimings records the elapsed time of each inference step. Every
// field is measured with time.Since over a time.Now start, so the values
// carry the monotonic reading and survive wall-clock jumps (NTP steps)
// mid-inference.
type StepTimings struct {
	TruthDiscovery time.Duration
	Smoothing      time.Duration
	Propagation    time.Duration
	Search         time.Duration
}

// Total returns the end-to-end inference time.
func (t StepTimings) Total() time.Duration {
	return t.TruthDiscovery + t.Smoothing + t.Propagation + t.Search
}

// ClosureResult carries the Step 1-3 output: the complete normalized
// closure that Search ranks, and the per-step diagnostics.
type ClosureResult struct {
	Closure *graph.PreferenceGraph
	// WorkerQuality holds the Step 1 quality estimates, indexed by worker.
	WorkerQuality []float64
	// TruthIterations and TruthConverged report the Step 1 loop behavior.
	TruthIterations int
	TruthConverged  bool
	// OneEdges is the number of unanimous edges Step 2 smoothed.
	OneEdges int
	// UninformedPairs counts pairs that fell back to 0.5/0.5 in Step 3.
	UninformedPairs int
	// Timings breaks the build down by step (Search stays zero: Step 4
	// is the caller's). The serving layer feeds these into its per-stage
	// latency histograms.
	Timings StepTimings
}

// Result is the pipeline output: the Step 1-3 closure and diagnostics
// (whose Timings.Search Infer fills in) plus the Step 4 ranking.
type Result struct {
	ClosureResult
	// Ranking is the inferred full ranking, best-first.
	Ranking []int
	// LogProb is the preference log-probability of the winning Hamiltonian
	// path over the normalized closure.
	LogProb float64
	// SearcherUsed reports which Step 4 algorithm actually ran.
	SearcherUsed Searcher
}

// NewPipelineRNG returns the random source the pipeline runs on for seed.
// Infer, CertifyRanking and the ranking daemon all seed through it, so a
// ranking inferred or served under a seed certifies against the closure
// rebuilt under the same seed.
func NewPipelineRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xd1342543de82ef95))
}

// Infer runs the four-step inference pipeline over the votes of m workers
// on n objects. rng drives smoothing draws and SAPS; a fixed source yields
// a reproducible result.
func Infer(n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*Result, error) {
	return InferContext(context.Background(), n, m, votes, opts, rng)
}

// InferContext is Infer with cancellation: ctx is checked between pipeline
// steps and polled inside the long-running Step 4 searchers (SAPS and
// branch-and-bound), so an expired deadline or an explicit cancel abandons
// inference promptly with ctx's error.
func InferContext(ctx context.Context, n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*Result, error) {
	if !opts.Searcher.valid() {
		return nil, fmt.Errorf("core: unknown searcher %d", int(opts.Searcher))
	}
	cl, err := buildClosure(ctx, n, m, votes, opts, rng)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sr, used, err := Search(ctx, cl.Closure, opts, rng)
	if err != nil {
		return nil, err
	}
	cl.Timings.Search = time.Since(start)
	return &Result{ClosureResult: *cl, Ranking: sr.Path, LogProb: sr.LogProb, SearcherUsed: used}, nil
}

// BuildClosure runs Steps 1-3 only (truth discovery, smoothing,
// propagation) and returns the complete normalized closure together with
// the per-step diagnostics. rng drives the smoothing draws.
func BuildClosure(n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*ClosureResult, error) {
	return buildClosure(context.Background(), n, m, votes, opts, rng)
}

// BuildClosureFrom adds votes to idx, then runs Steps 1-3 over every vote
// idx holds. A caller whose votes only grow keeps one index and passes the
// votes that arrived since its last build (idx.Len() counts those it
// holds; they stay added even when a later step fails): the result
// equals, bit for bit, BuildClosure over all of them. Each call returns a
// fresh closure; idx must not be used concurrently.
func BuildClosureFrom(idx *truth.Index, votes []crowd.Vote, opts Options, rng *rand.Rand) (*ClosureResult, error) {
	return closureFrom(context.Background(), idx, votes, opts, rng)
}

// buildClosure is BuildClosure with ctx checked before each step and after
// the last.
func buildClosure(ctx context.Context, n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*ClosureResult, error) {
	idx, err := truth.NewIndex(n, m)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 (truth discovery): %w", err)
	}
	return closureFrom(ctx, idx, votes, opts, rng)
}

// closureFrom is the one Steps 1-3 implementation. Indexing the new votes
// counts as truth discovery time.
func closureFrom(ctx context.Context, idx *truth.Index, votes []crowd.Vote, opts Options, rng *rand.Rand) (*ClosureResult, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 1: truth discovery.
	start := time.Now()
	if err := idx.Add(votes); err != nil {
		return nil, fmt.Errorf("core: step 1 (truth discovery): %w", err)
	}
	discovered, err := truth.Discover(idx, opts.Truth)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 (truth discovery): %w", err)
	}
	gp, err := truth.BuildPreferenceGraph(idx, discovered.Preference)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 (preference graph): %w", err)
	}
	res := &ClosureResult{
		WorkerQuality:   discovered.Quality,
		TruthIterations: discovered.Iterations,
		TruthConverged:  discovered.Converged,
	}
	res.Timings.TruthDiscovery = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 2: preference smoothing, in place: G_P is this build's own.
	start = time.Now()
	smoothStats, err := smooth.Smooth(gp, discovered.Quality, idx, rng, opts.Smooth)
	if err != nil {
		return nil, fmt.Errorf("core: step 2 (smoothing): %w", err)
	}
	res.OneEdges = smoothStats.OneEdges
	res.Timings.Smoothing = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 3: preference propagation into the normalized closure.
	start = time.Now()
	closure, propStats, err := propagate.Closure(gp, opts.Propagate)
	if err != nil {
		return nil, fmt.Errorf("core: step 3 (propagation): %w", err)
	}
	res.Closure = closure
	res.UninformedPairs = propStats.UninformedPairs
	res.Timings.Propagation = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Search runs Step 4 over a complete normalized closure and reports the
// searcher that ran. It resolves SearcherAuto (Held-Karp up to 16 objects,
// SAPS beyond), optimizes opts.Objective with every searcher (overriding
// opts.SAPS.Objective), and refines the result with opts.PolishSweeps
// insertion sweeps when positive. rng drives SAPS only. ctx is polled
// inside SAPS and branch-and-bound; a cancellation returns ctx's error.
func Search(ctx context.Context, closure *graph.PreferenceGraph, opts Options, rng *rand.Rand) (*search.Result, Searcher, error) {
	searcher := opts.Searcher
	if searcher == SearcherAuto {
		if closure.N() <= autoExactLimit {
			searcher = SearcherHeldKarp
		} else {
			searcher = SearcherSAPS
		}
	}
	var sr *search.Result
	var err error
	switch searcher {
	case SearcherSAPS:
		sapsParams := opts.SAPS
		sapsParams.Objective = opts.Objective
		sr, err = search.SAPSContext(ctx, closure, sapsParams, rng)
	case SearcherTAPS:
		var tr *search.TAPSResult
		tr, err = search.TAPS(closure, search.TAPSParams{Objective: opts.Objective})
		if err == nil {
			sr = &tr.Result
		}
	case SearcherHeldKarp:
		sr, err = search.HeldKarp(closure, 0, opts.Objective)
	case SearcherBruteForce:
		sr, err = search.BruteForce(closure, 0, opts.Objective)
	case SearcherBranchBound:
		if opts.Objective != search.ObjectiveAllPairs {
			return nil, searcher, fmt.Errorf("core: branch-and-bound supports only the all-pairs objective")
		}
		sr, err = search.BranchAndBoundContext(ctx, closure, search.BranchAndBoundParams{})
	default:
		return nil, searcher, fmt.Errorf("core: unknown searcher %d", int(searcher))
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, searcher, ctxErr // cancellation, not a search failure
		}
		return nil, searcher, fmt.Errorf("core: step 4 (%v search): %w", searcher, err)
	}
	if opts.PolishSweeps > 0 {
		polished, err := search.InsertionPolish(closure, sr.Path, opts.Objective, opts.PolishSweeps)
		if err != nil {
			return nil, searcher, fmt.Errorf("core: step 4 (insertion polish): %w", err)
		}
		sr = polished
	}
	// Stage-boundary assertion (no-op unless built with
	// -tags crowdrank_invariants): every searcher must return a
	// permutation of the n objects.
	invariant.CheckRanking(closure.N(), sr.Path)
	return sr, searcher, nil
}
