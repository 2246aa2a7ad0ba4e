package crowdrank

import (
	"fmt"
	"math/rand/v2"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/platform"
	"crowdrank/internal/simulate"
)

// WorkerDistribution selects how simulated workers' error deviations are
// drawn (the paper's Section VI-A4 settings).
type WorkerDistribution int

const (
	// GaussianWorkers draws sigma_k ~ |N(0, sigma_s^2)|.
	GaussianWorkers WorkerDistribution = iota + 1
	// UniformWorkers draws sigma_k uniformly from a level-dependent range.
	UniformWorkers
)

// WorkerQualityLevel selects the high / medium / low quality scenarios.
type WorkerQualityLevel int

const (
	// HighQualityWorkers: sigma_s = 0.01 (Gaussian) or sigma_k in [0, 0.2].
	HighQualityWorkers WorkerQualityLevel = iota + 1
	// MediumQualityWorkers: sigma_s = 0.1 or sigma_k in [0.1, 0.3].
	MediumQualityWorkers
	// LowQualityWorkers: sigma_s = 1 or sigma_k in [0.2, 0.4].
	LowQualityWorkers
)

func (d WorkerDistribution) internal() (simulate.QualityDistribution, error) {
	switch d {
	case GaussianWorkers:
		return simulate.Gaussian, nil
	case UniformWorkers:
		return simulate.Uniform, nil
	default:
		return 0, fmt.Errorf("crowdrank: unknown worker distribution %d", int(d))
	}
}

func (l WorkerQualityLevel) internal() (simulate.QualityLevel, error) {
	switch l {
	case HighQualityWorkers:
		return simulate.HighQuality, nil
	case MediumQualityWorkers:
		return simulate.MediumQuality, nil
	case LowQualityWorkers:
		return simulate.LowQuality, nil
	default:
		return 0, fmt.Errorf("crowdrank: unknown worker quality level %d", int(l))
	}
}

// SimConfig describes a simulated crowdsourcing round.
type SimConfig struct {
	// Workers is the worker-pool size m.
	Workers int
	// WorkersPerTask is w, the number of workers answering each HIT.
	WorkersPerTask int
	// PairsPerHIT is c, the number of comparisons packed per HIT.
	PairsPerHIT int
	// Distribution and Level select the worker-quality scenario.
	Distribution WorkerDistribution
	Level        WorkerQualityLevel
	// BalancedAssignment picks the least-loaded workers for each HIT
	// instead of sampling uniformly, keeping per-worker task counts even.
	BalancedAssignment bool
	// Seed makes the simulation reproducible.
	Seed uint64
}

// DefaultSimConfig mirrors the common experimental setting: a pool of 30
// workers, 10 per task, one comparison per HIT, medium Gaussian quality.
func DefaultSimConfig(seed uint64) SimConfig {
	return SimConfig{
		Workers:        30,
		WorkersPerTask: 10,
		PairsPerHIT:    1,
		Distribution:   GaussianWorkers,
		Level:          MediumQualityWorkers,
		Seed:           seed,
	}
}

// SimRound is the outcome of a simulated non-interactive round.
type SimRound struct {
	// Votes are the collected answers, ready for Infer.
	Votes []Vote
	// GroundTruth is the hidden true ranking (best-first) used to score
	// the inferred ranking.
	GroundTruth []int
	// WorkerSigmas are the hidden per-worker error deviations.
	WorkerSigmas []float64
	// Spent is the simulated money consumed at reward 1 per comparison per
	// worker; multiply by the real reward for dollar figures.
	Spent float64
}

// SimulateVotes runs one simulated non-interactive crowdsourcing round over
// the plan's tasks: a hidden ground-truth ranking is drawn, a crowd with the
// configured quality answers every HIT, and the (noisy, conflicting) votes
// are returned together with the hidden truth for scoring.
func SimulateVotes(plan *Plan, cfg SimConfig) (*SimRound, error) {
	if plan == nil {
		return nil, fmt.Errorf("crowdrank: nil plan")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("crowdrank: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.WorkersPerTask < 1 || cfg.WorkersPerTask > cfg.Workers {
		return nil, fmt.Errorf("crowdrank: workers per task %d outside [1, %d]", cfg.WorkersPerTask, cfg.Workers)
	}
	if cfg.PairsPerHIT < 1 {
		return nil, fmt.Errorf("crowdrank: pairs per HIT must be >= 1, got %d", cfg.PairsPerHIT)
	}
	dist, err := cfg.Distribution.internal()
	if err != nil {
		return nil, err
	}
	level, err := cfg.Level.internal()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa0761d6478bd642f))
	truth, err := simulate.GroundTruth(plan.N, rng)
	if err != nil {
		return nil, err
	}
	pool, err := simulate.NewCrowd(cfg.Workers, dist, level, rng)
	if err != nil {
		return nil, err
	}
	oracle, err := simulate.NewGroundTruthOracle(pool, truth, rng)
	if err != nil {
		return nil, err
	}

	pairs := make([]graph.Pair, len(plan.Pairs))
	for i, pr := range plan.Pairs {
		pairs[i] = graph.Pair{I: pr.I, J: pr.J}
	}
	hits, err := platform.PackHITs(pairs, cfg.PairsPerHIT)
	if err != nil {
		return nil, err
	}
	assign := platform.AssignWorkers
	if cfg.BalancedAssignment {
		assign = platform.AssignWorkersBalanced
	}
	assigned, err := assign(hits, cfg.Workers, cfg.WorkersPerTask, rng)
	if err != nil {
		return nil, err
	}
	round, err := platform.RunNonInteractive(hits, assigned, oracle, 1)
	if err != nil {
		return nil, err
	}

	sigmas := make([]float64, cfg.Workers)
	for k := range sigmas {
		sigmas[k] = pool.Sigma(k)
	}
	return &SimRound{
		Votes:        fromInternalVotes(round.Votes),
		GroundTruth:  truth,
		WorkerSigmas: sigmas,
		Spent:        round.Spent,
	}, nil
}

func fromInternalVotes(vs []crowd.Vote) []Vote {
	out := make([]Vote, len(vs))
	for i, v := range vs {
		out[i] = Vote{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}
	}
	return out
}

func toInternalVotes(vs []Vote) []crowd.Vote {
	out := make([]crowd.Vote, len(vs))
	for i, v := range vs {
		out[i] = crowd.Vote{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}
	}
	return out
}

// String names the distribution for logs and CLI output.
func (d WorkerDistribution) String() string {
	switch d {
	case GaussianWorkers:
		return "gaussian"
	case UniformWorkers:
		return "uniform"
	default:
		return fmt.Sprintf("WorkerDistribution(%d)", int(d))
	}
}

// String names the quality level for logs and CLI output.
func (l WorkerQualityLevel) String() string {
	switch l {
	case HighQualityWorkers:
		return "high"
	case MediumQualityWorkers:
		return "medium"
	case LowQualityWorkers:
		return "low"
	default:
		return fmt.Sprintf("WorkerQualityLevel(%d)", int(l))
	}
}
