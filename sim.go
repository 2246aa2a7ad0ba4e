package crowdrank

import (
	"fmt"
	"math/rand/v2"

	"crowdrank/internal/platform"
	"crowdrank/internal/simulate"
)

// WorkerDistribution selects how simulated workers' error deviations are
// drawn (the paper's Section VI-A4 settings): GaussianWorkers ("gaussian")
// or UniformWorkers ("uniform").
type WorkerDistribution = simulate.QualityDistribution

const (
	// GaussianWorkers draws sigma_k ~ |N(0, sigma_s^2)|.
	GaussianWorkers = simulate.Gaussian
	// UniformWorkers draws sigma_k uniformly from a level-dependent range.
	UniformWorkers = simulate.Uniform
)

// WorkerQualityLevel selects the high / medium / low quality scenarios:
// HighQualityWorkers ("high"), MediumQualityWorkers ("medium") or
// LowQualityWorkers ("low").
type WorkerQualityLevel = simulate.QualityLevel

const (
	// HighQualityWorkers: sigma_s = 0.01 (Gaussian) or sigma_k in [0, 0.2].
	HighQualityWorkers = simulate.HighQuality
	// MediumQualityWorkers: sigma_s = 0.1 or sigma_k in [0.1, 0.3].
	MediumQualityWorkers = simulate.MediumQuality
	// LowQualityWorkers: sigma_s = 1 or sigma_k in [0.2, 0.4].
	LowQualityWorkers = simulate.LowQuality
)

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
	sim, err := newSimulation(plan, cfg)
	if err != nil {
		return nil, err
	}
	assign := platform.AssignWorkers
	if cfg.BalancedAssignment {
		assign = platform.AssignWorkersBalanced
	}
	assigned, err := assign(sim.hits, cfg.Workers, cfg.WorkersPerTask, sim.rng)
	if err != nil {
		return nil, err
	}
	round, err := platform.RunNonInteractive(sim.hits, assigned, sim.oracle, 1)
	if err != nil {
		return nil, err
	}
	return sim.round(round.Votes, round.Spent), nil
}

// simulation is the set-up every simulated round shares: its random
// source, the hidden truth, and the crowd that answers through oracle;
// SimulateVotes and SimulateUnreliableVotes add the plan packed into HITs.
type simulation struct {
	rng    *rand.Rand
	truth  []int
	pool   *simulate.Crowd
	oracle *simulate.GroundTruthOracle
	hits   []platform.HIT
}

// newSimulation checks cfg against plan and draws the round's truth and
// crowd from cfg.Seed, so both collection paths see the same crowd for
// the same seed.
func newSimulation(plan *Plan, cfg SimConfig) (*simulation, error) {
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
	sim, err := drawCrowd(plan.N, cfg, rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa0761d6478bd642f)))
	if err != nil {
		return nil, err
	}
	if sim.hits, err = platform.PackHITs(plan.Pairs, cfg.PairsPerHIT); err != nil {
		return nil, err
	}
	return sim, nil
}

// drawCrowd draws, in this order from rng, a hidden ground-truth ranking
// of n objects, a crowd of cfg.Workers at cfg's quality, and the oracle
// through which that crowd answers.
func drawCrowd(n int, cfg SimConfig, rng *rand.Rand) (*simulation, error) {
	truth, err := simulate.GroundTruth(n, rng)
	if err != nil {
		return nil, err
	}
	pool, err := simulate.NewCrowd(cfg.Workers, cfg.Distribution, cfg.Level, rng)
	if err != nil {
		return nil, err
	}
	oracle, err := simulate.NewGroundTruthOracle(pool, truth, rng)
	if err != nil {
		return nil, err
	}
	return &simulation{rng: rng, truth: truth, pool: pool, oracle: oracle}, nil
}

// round packages the collected votes with the simulation's hidden truth.
func (s *simulation) round(votes []Vote, spent float64) *SimRound {
	sigmas := make([]float64, s.pool.Size())
	for k := range sigmas {
		sigmas[k] = s.pool.Sigma(k)
	}
	return &SimRound{Votes: votes, GroundTruth: s.truth, WorkerSigmas: sigmas, Spent: spent}
}
