package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/des"
	"crowdrank/internal/faults"
	"crowdrank/internal/graph"
	"crowdrank/internal/kendall"
	"crowdrank/internal/platform"
	"crowdrank/internal/simulate"
	"crowdrank/internal/taskgen"
)

// Faults sweeps marketplace loss against ranking accuracy: each row injects
// a higher HIT dropout rate (plus a constant 5% spam floor) into a seeded
// unreliable round, collects with and without the repair protocol, and runs
// inference over whatever survives sanitization. The table shows how
// delivery, residual task-graph coverage, and accuracy degrade as the crowd
// gets flakier — and how much of the loss bounded reposting buys back.
func Faults(w io.Writer, scale Scale) error {
	n := 60
	if scale == ScaleQuick {
		n = 30
	}
	if err := faultSweep(w, n, false); err != nil {
		return err
	}
	return faultSweep(w, n, true)
}

func faultSweep(w io.Writer, n int, repair bool) error {
	mode := "no repair"
	params := des.CollectParams{Deadline: 30 * time.Minute, Reward: 1}
	if repair {
		mode = "repair: 2 reposts, 25% slack"
		params.MaxReposts = 2
	}
	header(w, fmt.Sprintf("Faults: dropout rate vs accuracy (n=%d, r=0.5, w=5, spam=0.05, %s)", n, mode))
	t := newTable(w, "dropout", "delivered", "repaired", "coverage", "accuracy")
	for _, dropout := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		acc, coverage, stats, err := faultRound(n, dropout, params, repair)
		if err != nil {
			return fmt.Errorf("faults dropout=%.1f: %w", dropout, err)
		}
		delivered := fmt.Sprintf("%d/%d", stats.Delivered, stats.PlannedAnswers)
		t.row(fmt.Sprintf("%.2f", dropout), delivered, stats.Repaired, coverage, acc)
	}
	return nil
}

// faultRound simulates one unreliable round through the discrete-event
// marketplace with fault injection, sanitizes the delivered votes, and
// scores inference against the hidden truth. It returns the accuracy, the
// fraction of planned pairs that kept at least one valid vote, and the raw
// collection stats.
func faultRound(n int, dropout float64, params des.CollectParams, repair bool) (float64, float64, *des.CollectStats, error) {
	const pool, perTask = 30, 5
	seed := uint64(n)*1009 + uint64(dropout*100)
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))

	l, err := taskgen.PairsForRatio(n, 0.5)
	if err != nil {
		return 0, 0, nil, err
	}
	plan, err := taskgen.Generate(n, l, rng)
	if err != nil {
		return 0, 0, nil, err
	}
	truth, err := simulate.GroundTruth(n, rng)
	if err != nil {
		return 0, 0, nil, err
	}
	crowdPool, err := simulate.NewCrowd(pool, simulate.Gaussian, simulate.MediumQuality, rng)
	if err != nil {
		return 0, 0, nil, err
	}
	oracle, err := simulate.NewGroundTruthOracle(crowdPool, truth, rng)
	if err != nil {
		return 0, 0, nil, err
	}
	hits, err := platform.PackHITs(plan.Pairs(), 1)
	if err != nil {
		return 0, 0, nil, err
	}
	inj, err := faults.NewInjector(faults.Profile{
		Dropout:   dropout,
		Malformed: 0.05,
		Seed:      seed*31 + 7,
	}, n, pool)
	if err != nil {
		return 0, 0, nil, err
	}
	market, err := des.New(oracle, des.DefaultWorkerModel(), rng)
	if err != nil {
		return 0, 0, nil, err
	}
	if repair {
		params.RepairBudget = 0.25 * float64(l*perTask)
	}
	res, err := market.RunBatchFaulty(hits, perTask, inj, params)
	if err != nil {
		return 0, 0, nil, err
	}

	valid, _ := crowd.Clean(res.Votes, n, pool)
	inferred, err := core.Infer(n, pool, valid, core.DefaultOptions(),
		rand.New(rand.NewPCG(seed+1, seed^0x51afd54db5f78a11)))
	if err != nil {
		return 0, 0, nil, err
	}
	acc, err := kendall.Accuracy(inferred.Ranking, truth)
	if err != nil {
		return 0, 0, nil, err
	}
	return acc, pairCoverage(plan.Pairs(), valid), &res.Stats, nil
}

// pairCoverage is the fraction of planned pairs with at least one valid
// delivered vote — the residual task graph that survived collection.
func pairCoverage(pairs []graph.Pair, votes []crowd.Vote) float64 {
	if len(pairs) == 0 {
		return 1
	}
	have := make(map[graph.Pair]bool, len(votes))
	for _, v := range votes {
		lo, hi := v.I, v.J
		if lo > hi {
			lo, hi = hi, lo
		}
		have[graph.Pair{I: lo, J: hi}] = true
	}
	covered := 0
	for _, pr := range pairs {
		lo, hi := pr.I, pr.J
		if lo > hi {
			lo, hi = hi, lo
		}
		if have[graph.Pair{I: lo, J: hi}] {
			covered++
		}
	}
	return float64(covered) / float64(len(pairs))
}
