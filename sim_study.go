package crowdrank

import (
	"fmt"
	"math/rand/v2"
	"time"

	"crowdrank/internal/baselines/crowdbt"
	"crowdrank/internal/platform"
	"crowdrank/internal/simulate"
	"crowdrank/internal/taskgen"
)

// ImageStudyConfig describes a synthetic AMT-style image-ranking study: a
// PubFig-like collection of images with latent "smile" scores is generated,
// Images closely machine-ranked photos (adjacent rank gap <= MaxRankGap)
// are selected, and a human-like crowd compares them.
type ImageStudyConfig struct {
	// Images is the number of photos to rank (the paper uses 10 and 20).
	Images int
	// MaxRankGap bounds adjacent machine-rank gaps of the selection (the
	// paper uses 46).
	MaxRankGap int
	// WorkersPerComparison is w, the workers answering each comparison
	// (the paper varies 100..200).
	WorkersPerComparison int
	// Ratio is the selection ratio of all pairs (the paper varies 0.25..1).
	Ratio float64
	// Reward is the payment per comparison per worker (the paper pays
	// $0.025).
	Reward float64
	// Seed makes the study reproducible.
	Seed uint64
}

// DefaultImageStudyConfig mirrors the paper's 10-image setting.
func DefaultImageStudyConfig(seed uint64) ImageStudyConfig {
	return ImageStudyConfig{
		Images:               10,
		MaxRankGap:           46,
		WorkersPerComparison: 100,
		Ratio:                0.5,
		Reward:               0.025,
		Seed:                 seed,
	}
}

// ImageStudyRound is one simulated AMT study. Like the paper's AMT
// experiment it carries no ground truth: quality is assessed by the
// agreement between exact and heuristic search (see the imageranking
// example).
type ImageStudyRound struct {
	// N is the number of objects (images); Workers the worker-pool size.
	N       int
	Workers int
	// Votes are the collected human-like judgments.
	Votes []Vote
	// Spent is the money consumed at the configured reward.
	Spent float64
}

// SimulateImageRanking runs one synthetic AMT-style study (Section VI-D's
// substitution; see DESIGN.md).
func SimulateImageRanking(cfg ImageStudyConfig) (*ImageStudyRound, error) {
	if cfg.Images < 2 {
		return nil, fmt.Errorf("crowdrank: image study needs at least two images, got %d", cfg.Images)
	}
	if cfg.MaxRankGap < 1 {
		return nil, fmt.Errorf("crowdrank: MaxRankGap must be >= 1, got %d", cfg.MaxRankGap)
	}
	if cfg.WorkersPerComparison < 1 {
		return nil, fmt.Errorf("crowdrank: need at least one worker per comparison, got %d", cfg.WorkersPerComparison)
	}
	if cfg.Reward <= 0 {
		return nil, fmt.Errorf("crowdrank: reward must be positive, got %v", cfg.Reward)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x2545f4914f6cdd1d))
	set, err := simulate.NewImageSet(simulate.DefaultPubFigParams(), rng)
	if err != nil {
		return nil, err
	}
	images, err := set.PickClose(cfg.Images, cfg.MaxRankGap, rng)
	if err != nil {
		return nil, err
	}
	poolSize := cfg.WorkersPerComparison * 2
	pool, err := simulate.NewCrowd(poolSize, simulate.Uniform, simulate.MediumQuality, rng)
	if err != nil {
		return nil, err
	}
	oracle, err := simulate.NewHumanOracle(set, images, pool, 0.35, rng)
	if err != nil {
		return nil, err
	}

	l, err := taskgen.PairsForRatio(cfg.Images, cfg.Ratio)
	if err != nil {
		return nil, err
	}
	plan, err := taskgen.Generate(cfg.Images, l, rng)
	if err != nil {
		return nil, err
	}
	hits, err := platform.PackHITs(plan.Pairs(), 1)
	if err != nil {
		return nil, err
	}
	assigned, err := platform.AssignWorkers(hits, poolSize, cfg.WorkersPerComparison, rng)
	if err != nil {
		return nil, err
	}
	round, err := platform.RunNonInteractive(hits, assigned, oracle, cfg.Reward)
	if err != nil {
		return nil, err
	}
	return &ImageStudyRound{
		N:       cfg.Images,
		Workers: poolSize,
		Votes:   round.Votes,
		Spent:   round.Spent,
	}, nil
}

// InteractiveResult reports an interactive-baseline run (CrowdBT) against a
// simulated crowd.
type InteractiveResult struct {
	// Ranking is the final inferred ranking (best first).
	Ranking []int
	// Rounds is the number of marketplace round-trips performed.
	Rounds int
	// Spent is the money consumed.
	Spent float64
	// SimulatedLatency is the marketplace turnaround the interactive
	// protocol would incur at the configured per-round latency; the
	// non-interactive pipeline incurs exactly one such round.
	SimulatedLatency time.Duration
	// GroundTruth is the hidden true ranking, for scoring.
	GroundTruth []int
}

// RunInteractiveCrowdBT runs the paper's interactive baseline (CrowdBT with
// uncertainty-driven pair selection) against a freshly simulated crowd with
// the given budget, so examples can contrast the non-interactive pipeline's
// single round with the interactive protocol's thousands of round-trips.
func RunInteractiveCrowdBT(n int, budget Budget, cfg SimConfig, roundLatency time.Duration) (*InteractiveResult, error) {
	if n < 2 {
		return nil, fmt.Errorf("crowdrank: need at least two objects, got n=%d", n)
	}
	sim, err := drawCrowd(n, cfg, rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)))
	if err != nil {
		return nil, err
	}
	session, err := platform.NewInteractiveSession(sim.oracle, budget, roundLatency, sim.rng)
	if err != nil {
		return nil, err
	}
	params := crowdbt.DefaultActiveParams()
	params.RefitEvery = 25
	params.Fit.Epochs = 40
	model, err := crowdbt.Active(session, n, cfg.Workers, params, sim.rng)
	if err != nil {
		return nil, err
	}
	return &InteractiveResult{
		Ranking:          model.Ranking(),
		Rounds:           session.Rounds(),
		Spent:            session.Spent(),
		SimulatedLatency: session.SimulatedLatency(),
		GroundTruth:      sim.truth,
	}, nil
}
