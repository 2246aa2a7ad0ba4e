package crowdrank

import (
	"fmt"
	"math/rand/v2"

	"crowdrank/internal/baselines/btl"
	"crowdrank/internal/baselines/crowdbt"
	"crowdrank/internal/baselines/mv"
	"crowdrank/internal/baselines/qs"
	"crowdrank/internal/baselines/rc"
)

// RepeatChoice aggregates the votes into a full ranking with the
// RepeatChoice rank-aggregation baseline (Ailon 2010). It is fast but needs
// dense per-worker preference coverage; under sparse budgets it is no
// better than a random guess, as the paper reports.
func RepeatChoice(n int, votes []Vote, seed uint64) ([]int, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xe7037ed1a0b428db))
	return rc.Rank(n, votes, rng)
}

// QuickSortRank aggregates the votes with the Condorcet-graph QuickSort
// baseline (Montague-Aslam): a randomized quicksort whose comparator
// follows the pairwise majority, flipping a coin for uncompared pairs.
func QuickSortRank(n int, votes []Vote, seed uint64) ([]int, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x8ebc6af09c88c6e3))
	return qs.Rank(n, votes, rng)
}

// MajorityRank aggregates the votes by plain majority voting followed by
// Copeland scoring (pairwise wins minus losses) — the naive baseline the
// paper's introduction contrasts with truth discovery.
func MajorityRank(n int, votes []Vote, seed uint64) ([]int, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x589965cc75374cc3))
	majority, err := mv.NewPairwiseMajority(n, votes)
	if err != nil {
		return nil, err
	}
	return majority.CopelandRanking(rng)
}

// BordaRank aggregates the votes by majority preference fractions summed
// per object (a Borda-style score over the compared pairs).
func BordaRank(n int, votes []Vote, seed uint64) ([]int, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x1d8e4e27c47d124f))
	majority, err := mv.NewPairwiseMajority(n, votes)
	if err != nil {
		return nil, err
	}
	return majority.BordaRanking(rng)
}

// BradleyTerryRank aggregates the votes with the plain Bradley-Terry-Luce
// model (reference [19] of the paper) fitted by minorize-maximize — the
// control baseline between the majority heuristics and CrowdBT: it models
// latent object strengths but not worker reliability.
func BradleyTerryRank(n int, votes []Vote) ([]int, error) {
	model, err := btl.Fit(n, votes, btl.DefaultParams())
	if err != nil {
		return nil, err
	}
	return model.Ranking(), nil
}

// CrowdBTResult reports the CrowdBT baseline's output.
type CrowdBTResult struct {
	// Ranking is the objects ordered by descending latent score.
	Ranking []int
	// Scores are the fitted Bradley-Terry latent scores per object.
	Scores []float64
	// Reliability holds the fitted per-worker reliability eta_k.
	Reliability []float64
}

// CrowdBTFit fits the CrowdBT model (Bradley-Terry with per-worker
// reliability, Chen et al. WSDM 2013) to a fixed vote set by gradient
// ascent — the offline use of the paper's learning-based baseline.
func CrowdBTFit(n, m int, votes []Vote) (*CrowdBTResult, error) {
	model, err := crowdbt.Fit(n, m, votes, crowdbt.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &CrowdBTResult{
		Ranking:     model.Ranking(),
		Scores:      model.Scores,
		Reliability: model.Reliability,
	}, nil
}

// BaselineName identifies a baseline for the comparison helpers.
type BaselineName string

// Baselines available to CompareWithBaselines.
const (
	BaselineRC       BaselineName = "rc"
	BaselineQS       BaselineName = "qs"
	BaselineMajority BaselineName = "majority"
	BaselineBorda    BaselineName = "borda"
	BaselineCrowdBT  BaselineName = "crowdbt"
	BaselineBTL      BaselineName = "btl"
)

// RunBaseline runs one named baseline over the votes and returns its
// ranking. m (the worker-pool size) is needed only by CrowdBT.
func RunBaseline(name BaselineName, n, m int, votes []Vote, seed uint64) ([]int, error) {
	switch name {
	case BaselineRC:
		return RepeatChoice(n, votes, seed)
	case BaselineQS:
		return QuickSortRank(n, votes, seed)
	case BaselineMajority:
		return MajorityRank(n, votes, seed)
	case BaselineBorda:
		return BordaRank(n, votes, seed)
	case BaselineCrowdBT:
		res, err := CrowdBTFit(n, m, votes)
		if err != nil {
			return nil, err
		}
		return res.Ranking, nil
	case BaselineBTL:
		return BradleyTerryRank(n, votes)
	default:
		return nil, fmt.Errorf("crowdrank: unknown baseline %q", name)
	}
}
