package crowdrank

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/search"
	"crowdrank/internal/serve"
)

// Vote records that Worker compared objects I and J and preferred I when
// PrefersI is true (I should rank before J).
type Vote struct {
	Worker   int
	I, J     int
	PrefersI bool
}

// SearchAlgorithm selects the Step 4 best-ranking searcher.
type SearchAlgorithm int

const (
	// SearchAuto uses an exact method up to 16 objects and simulated
	// annealing beyond.
	SearchAuto SearchAlgorithm = iota
	// SearchSAPS forces the paper's simulated-annealing path search.
	SearchSAPS
	// SearchTAPS forces the paper's exact threshold algorithm (n <= ~9).
	SearchTAPS
	// SearchHeldKarp forces the exact subset DP (n <= ~20).
	SearchHeldKarp
	// SearchBruteForce forces exhaustive enumeration (n <= ~10).
	SearchBruteForce
	// SearchBranchBound forces the exact all-pairs branch-and-bound,
	// effective on near-consistent closures well beyond Held-Karp's reach
	// (it returns an error on cycle-heavy instances instead of an unproven
	// answer).
	SearchBranchBound
)

func (s SearchAlgorithm) core() (core.Searcher, error) {
	switch s {
	case SearchAuto:
		return core.SearcherAuto, nil
	case SearchSAPS:
		return core.SearcherSAPS, nil
	case SearchTAPS:
		return core.SearcherTAPS, nil
	case SearchHeldKarp:
		return core.SearcherHeldKarp, nil
	case SearchBruteForce:
		return core.SearcherBruteForce, nil
	case SearchBranchBound:
		return core.SearcherBranchBound, nil
	default:
		return 0, fmt.Errorf("crowdrank: unknown search algorithm %d", int(s))
	}
}

// options carries the assembled inference configuration.
type options struct {
	core   core.Options
	seed   uint64
	strict bool
	err    error
}

// Option customizes Infer.
type Option func(*options)

// WithSeed fixes the random seed used by smoothing and SAPS, making
// inference reproducible. Without it a time-derived seed is used; either
// way the effective seed is recorded in Result.Seed so dependent calls
// (CertifyRanking in particular) can reuse it.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithStrictVotes makes Infer reject malformed input instead of repairing
// it: the first out-of-range object id, self-pair, out-of-range worker id,
// or exact duplicate submission aborts inference with a *VoteError naming
// the offending vote. Without this option Infer is lenient — it drops such
// votes and reports what was removed in Result.Sanitization.
func WithStrictVotes() Option {
	return func(o *options) { o.strict = true }
}

// WithAlpha sets the direct/indirect blend weight of Step 3
// (w = alpha*direct + (1-alpha)*indirect); alpha must lie in [0, 1].
func WithAlpha(alpha float64) Option {
	return func(o *options) { o.core.Propagate.Alpha = alpha }
}

// WithMaxHops bounds the transitive chains considered by Step 3's
// propagation (>= 1; 1 disables indirect evidence).
func WithMaxHops(hops int) Option {
	return func(o *options) { o.core.Propagate.MaxHops = hops }
}

// PathObjective selects what "preference probability of a ranking" means in
// the Step 4 search (the paper's Pr[P] over a Hamiltonian path of the
// transitive closure).
type PathObjective int

const (
	// AllPairsObjective scores a ranking by the product of preference
	// weights over all object pairs it implies — the sound reading used by
	// default (see DESIGN.md, "objective reading").
	AllPairsObjective PathObjective = iota
	// ConsecutiveObjective scores only the n-1 consecutive edges of the
	// path, the literal reading of the paper's formula; kept for fidelity
	// and ablations.
	ConsecutiveObjective
)

// WithObjective selects the Step 4 path-preference objective.
func WithObjective(obj PathObjective) Option {
	return func(o *options) {
		switch obj {
		case AllPairsObjective:
			o.core.Objective = search.ObjectiveAllPairs
		case ConsecutiveObjective:
			o.core.Objective = search.ObjectiveConsecutive
		default:
			o.err = fmt.Errorf("crowdrank: unknown objective %d", int(obj))
		}
	}
}

// WithSearch selects the Step 4 algorithm.
func WithSearch(alg SearchAlgorithm) Option {
	return func(o *options) {
		s, err := alg.core()
		if err != nil {
			o.err = err
			return
		}
		o.core.Searcher = s
	}
}

// WithSAPS tunes the simulated-annealing searcher: iterations per start,
// initial temperature, cooling rate in (0,1), and the number of start
// vertices (0 = all objects, the paper's setting).
func WithSAPS(iterations int, temperature, cooling float64, starts int) Option {
	return func(o *options) {
		o.core.SAPS.Iterations = iterations
		o.core.SAPS.Temperature = temperature
		o.core.SAPS.Cooling = cooling
		o.core.SAPS.Starts = starts
	}
}

// WithParallelism fans the pipeline's embarrassingly parallel stages —
// Step 3's per-source walk accumulation and SAPS's independent annealing
// starts — over the given number of goroutines. Results remain
// deterministic for a fixed seed; 0 or 1 means sequential.
func WithParallelism(workers int) Option {
	return func(o *options) {
		o.core.SAPS.Parallelism = workers
		o.core.Propagate.Parallelism = workers
	}
}

// WithPolish refines the Step 4 result with up to the given number of
// insertion-move local-search sweeps (a strictly larger neighborhood than
// the annealer's swaps; never worsens the objective). 0 disables.
func WithPolish(sweeps int) Option {
	return func(o *options) { o.core.PolishSweeps = sweeps }
}

// WithTruthDiscovery tunes Step 1: the chi-square confidence parameter
// alpha, the iteration cap, and the convergence tolerance.
func WithTruthDiscovery(alpha float64, maxIterations int, tolerance float64) Option {
	return func(o *options) {
		o.core.Truth.Alpha = alpha
		o.core.Truth.MaxIterations = maxIterations
		o.core.Truth.Tolerance = tolerance
	}
}

// WithSmoothing tunes Step 2's adjustment clamp [minDelta, maxDelta].
func WithSmoothing(minDelta, maxDelta float64) Option {
	return func(o *options) {
		o.core.Smooth.MinDelta = minDelta
		o.core.Smooth.MaxDelta = maxDelta
	}
}

// Result is the outcome of Infer.
type Result struct {
	// Ranking is the inferred full ranking, most-preferred object first.
	Ranking []int
	// LogProb is the log preference probability of the winning ranking.
	LogProb float64
	// WorkerQuality holds the estimated quality of each worker in (0, 1]
	// (0 for workers who cast no votes).
	WorkerQuality []float64
	// TruthIterations / TruthConverged describe the Step 1 loop.
	TruthIterations int
	TruthConverged  bool
	// OneEdges is the number of unanimous preferences Step 2 smoothed.
	OneEdges int
	// UninformedPairs counts object pairs with no direct or transitive
	// evidence (decided 50/50).
	UninformedPairs int
	// Seed is the effective random seed the pipeline ran with — the
	// WithSeed value, or the time-derived seed drawn when none was given.
	// Pass it to CertifyRanking (via WithSeed) so the certificate describes
	// the same smoothed closure as this ranking.
	Seed uint64
	// Sanitization reports what lenient input sanitization dropped before
	// inference; Sanitization.Clean() is true for well-formed input. Under
	// WithStrictVotes inference instead fails on the first offense.
	Sanitization SanitizeReport
	// Coverage describes how completely the (sanitized) votes cover the
	// object universe — the degradation report for rounds that lost HITs.
	// Objects in Coverage.UncoveredObjects are placed by the uninformed
	// 0.5 prior alone.
	Coverage CoverageReport
	// Timings breaks down inference time by step.
	Timings StepTimings
}

// SuspectWorkers returns the workers whose estimated quality is positive
// (they cast votes) but below threshold, sorted by ascending quality — a
// spam/adversary report derived purely from vote agreement, with no
// gold-standard questions. A threshold around 0.75 flags coin-flippers on
// typical workloads; see the workerquality example.
func (r *Result) SuspectWorkers(threshold float64) []int {
	var suspects []int
	for w, q := range r.WorkerQuality {
		if q > 0 && q < threshold {
			suspects = append(suspects, w)
		}
	}
	sort.Slice(suspects, func(a, b int) bool {
		return r.WorkerQuality[suspects[a]] < r.WorkerQuality[suspects[b]]
	})
	return suspects
}

// StepTimings records per-step wall-clock durations of the pipeline.
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

// Infer aggregates the crowd's votes into a full ranking of n objects using
// the paper's four-step pipeline. m is the worker-pool size (worker ids in
// votes must lie in [0, m)).
//
// Input handling is lenient by default: malformed votes (out-of-range ids,
// self-pairs, exact duplicate submissions) are dropped and reported in
// Result.Sanitization rather than corrupting the pipeline. WithStrictVotes
// turns the first such vote into a *VoteError instead.
func Infer(n, m int, votes []Vote, opts ...Option) (*Result, error) {
	return InferContext(context.Background(), n, m, votes, opts...)
}

// InferContext is Infer with cancellation: ctx is checked between pipeline
// steps and polled inside the long-running Step 4 searchers (SAPS and
// branch-and-bound), so an expired deadline or an explicit cancel abandons
// inference promptly with ctx's error.
func InferContext(ctx context.Context, n, m int, votes []Vote, opts ...Option) (*Result, error) {
	o := &options{core: core.DefaultOptions(), seed: uint64(time.Now().UnixNano())}
	for _, opt := range opts {
		opt(o)
	}
	if o.err != nil {
		return nil, o.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var report SanitizeReport
	if o.strict {
		if err := ValidateVotes(n, m, votes); err != nil {
			return nil, err
		}
		report = SanitizeReport{Input: len(votes), Kept: len(votes)}
	} else {
		votes, report = SanitizeVotes(n, m, votes)
	}
	coverage := MeasureCoverage(n, votes)

	internalVotes := make([]crowd.Vote, len(votes))
	for i, v := range votes {
		internalVotes[i] = crowd.Vote{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}
	}
	rng := rand.New(rand.NewPCG(o.seed, o.seed^0xd1342543de82ef95))
	res, err := core.InferContext(ctx, n, m, internalVotes, o.core, rng)
	if err != nil {
		return nil, err
	}
	return &Result{
		Ranking:         res.Ranking,
		LogProb:         res.LogProb,
		WorkerQuality:   res.WorkerQuality,
		TruthIterations: res.TruthIterations,
		TruthConverged:  res.TruthConverged,
		OneEdges:        res.OneEdges,
		UninformedPairs: res.UninformedPairs,
		Seed:            o.seed,
		Sanitization:    report,
		Coverage:        coverage,
		Timings: StepTimings{
			TruthDiscovery: res.Timings.TruthDiscovery,
			Smoothing:      res.Timings.Smoothing,
			Propagation:    res.Timings.Propagation,
			Search:         res.Timings.Search,
		},
	}, nil
}

// String names the search algorithm for logs and CLI output.
func (s SearchAlgorithm) String() string {
	switch s {
	case SearchAuto:
		return "auto"
	case SearchSAPS:
		return "saps"
	case SearchTAPS:
		return "taps"
	case SearchHeldKarp:
		return "heldkarp"
	case SearchBruteForce:
		return "bruteforce"
	case SearchBranchBound:
		return "branchbound"
	default:
		return fmt.Sprintf("SearchAlgorithm(%d)", int(s))
	}
}

// String names the objective for logs and CLI output.
func (o PathObjective) String() string {
	switch o {
	case AllPairsObjective:
		return "all-pairs"
	case ConsecutiveObjective:
		return "consecutive"
	default:
		return fmt.Sprintf("PathObjective(%d)", int(o))
	}
}

// Certificate bounds how far a ranking can be from the all-pairs optimum
// without any search: the true optimality gap is at most Gap, and Gap == 0
// proves optimality. See CertifyRanking.
type Certificate struct {
	Score      float64
	UpperBound float64
	Gap        float64
}

// CertifyRanking recomputes the Step 1-3 closure from the votes and returns
// the optimality certificate of the ranking under the all-pairs objective.
// On well-calibrated closures the pipeline result's Gap is small relative
// to |Score|.
//
// The closure depends on the random seed (Step 2's smoothing draws), so the
// certificate describes the same closure as an earlier Infer only when both
// calls use the same seed: pass WithSeed(result.Seed) — Result.Seed records
// the effective seed even when Infer drew a time-derived one. An unseeded
// CertifyRanking draws its own seed and certifies a *different* closure
// than the ranking was inferred from. Votes are sanitized exactly as Infer
// sanitizes them (lenient by default, strict under WithStrictVotes), again
// so both calls see identical input.
func CertifyRanking(n, m int, votes []Vote, ranking []int, opts ...Option) (*Certificate, error) {
	o := &options{core: core.DefaultOptions(), seed: uint64(time.Now().UnixNano())}
	for _, opt := range opts {
		opt(o)
	}
	if o.err != nil {
		return nil, o.err
	}
	if o.strict {
		if err := ValidateVotes(n, m, votes); err != nil {
			return nil, err
		}
	} else {
		votes, _ = SanitizeVotes(n, m, votes)
	}
	rng := rand.New(rand.NewPCG(o.seed, o.seed^0xd1342543de82ef95))
	cl, err := core.BuildClosure(n, m, toInternalVotes(votes), o.core, rng)
	if err != nil {
		return nil, err
	}
	cert, err := search.Certify(cl.Closure, ranking)
	if err != nil {
		return nil, err
	}
	return &Certificate{Score: cert.Score, UpperBound: cert.UpperBound, Gap: cert.Gap}, nil
}

// ServeConfig configures the crowdrankd ranking daemon: journaled vote
// ingestion, deadline-aware degradation, and the exact-rung circuit
// breaker. DefaultServeConfig makes every default explicit; see
// cmd/crowdrankd for the HTTP binary.
type ServeConfig = serve.Config

// RankServer is the daemon engine behind crowdrankd, usable in-process:
// Ingest acknowledges batches only once durable in the write-ahead
// journal, RankContext degrades down the search ladder under the caller's
// deadline (serving the best answer already found for the current votes
// when this request cannot afford better), and Handler exposes the HTTP
// API.
//
// Served rankings are certifiable exactly like Infer results: the daemon
// runs the same Step 1-3 closure pipeline under its configured seed
// (reported by Seed and in every rank response), so
// CertifyRanking(..., WithSeed(seed)) recomputes the closure a served
// ranking was searched on.
type RankServer = serve.Server

// ServeIngestResult and ServeRankResult are the daemon's batch
// acknowledgement and ranking response types.
type (
	ServeIngestResult = serve.IngestResult
	ServeRankResult   = serve.RankResult
)

// Journal durability policies for ServeConfig.JournalSync.
const (
	// JournalSyncAlways fsyncs before acknowledging each batch: an acked
	// batch survives OS crash and power loss.
	JournalSyncAlways = journal.SyncAlways
	// JournalSyncOS leaves flushing to the page cache: faster, survives
	// process death but not OS crash.
	JournalSyncOS = journal.SyncOS
)

// DefaultServeConfig returns the daemon configuration for n objects and m
// workers with every default made explicit.
func DefaultServeConfig(n, m int) ServeConfig { return serve.DefaultConfig(n, m) }

// NewRankServer validates cfg, opens and replays the journal, and returns
// a ready daemon engine. Stop it with Close to drain in-flight work and
// perform the final journal sync.
func NewRankServer(cfg ServeConfig) (*RankServer, error) { return serve.New(cfg) }

// IngestVotes feeds public Votes into a RankServer; a nil error means the
// batch is durable under the configured journal policy.
func IngestVotes(s *RankServer, votes []Vote) (ServeIngestResult, error) {
	return s.Ingest(toInternalVotes(votes))
}
