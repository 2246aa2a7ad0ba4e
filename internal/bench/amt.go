package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/kendall"
	"crowdrank/internal/platform"
	"crowdrank/internal/simulate"
	"crowdrank/internal/taskgen"
)

// AMT reproduces the Section VI-D study on the synthetic PubFig stand-in:
// 10- and 20-image sets of closely machine-ranked celebrity photos
// (adjacent rank gap <= 46), judged by a human-like Thurstone crowd at
// w in {100, 125, 150, 200} workers per comparison and selection ratios
// r in {0.25, 0.5, 0.75, 1}. As in the paper there is no ground truth, so
// the reported metric is the Kendall agreement between the exact search
// (TAPS at 10 images where its factorial lists fit; Held-Karp DP at 20) and
// SAPS — the paper's observation to reproduce is that SAPS almost always
// returns the same ranking as the exact method.
func AMT(w io.Writer, scale Scale) error {
	header(w, "AMT study (synthetic PubFig): exact-vs-SAPS agreement, no ground truth")
	imageCounts := []int{10, 20}
	workerCounts := []int{100, 125, 150, 200}
	ratios := []float64{0.25, 0.5, 0.75, 1}
	if scale == ScaleQuick {
		workerCounts = []int{100}
		ratios = []float64{0.5, 1}
	}

	rng := rand.New(rand.NewPCG(2024, 1015))
	set, err := simulate.NewImageSet(simulate.DefaultPubFigParams(), rng)
	if err != nil {
		return fmt.Errorf("amt: %w", err)
	}

	t := newTable(w, "images", "workers/HIT", "ratio", "exact", "agreement", "sapsAcc*", "exactAcc*")
	for _, k := range imageCounts {
		images, err := set.PickClose(k, 46, rng)
		if err != nil {
			return fmt.Errorf("amt pick %d: %w", k, err)
		}
		for _, workersPerHIT := range workerCounts {
			for _, ratio := range ratios {
				row, err := amtRun(set, images, workersPerHIT, ratio, rng)
				if err != nil {
					return fmt.Errorf("amt k=%d w=%d r=%v: %w", k, workersPerHIT, ratio, err)
				}
				t.row(k, workersPerHIT, fmt.Sprintf("%.2f", ratio), row.exactName,
					row.agreement, row.sapsLatent, row.exactLatent)
			}
		}
	}
	fmt.Fprintln(w, "(*latent-score accuracy shown for diagnostics only; the paper has no ground truth)")
	return nil
}

type amtRow struct {
	exactName   string
	agreement   float64
	sapsLatent  float64
	exactLatent float64
}

func amtRun(set *simulate.ImageSet, images []int, workersPerHIT int, ratio float64, rng *rand.Rand) (*amtRow, error) {
	n := len(images)
	// The AMT crowd is large: the pool is 2x the per-HIT assignment.
	poolSize := workersPerHIT * 2
	pool, err := simulate.NewCrowd(poolSize, simulate.Uniform, simulate.MediumQuality, rng)
	if err != nil {
		return nil, err
	}
	oracle, err := simulate.NewHumanOracle(set, images, pool, 0.35, rng)
	if err != nil {
		return nil, err
	}

	l, err := taskgen.PairsForRatio(n, ratio)
	if err != nil {
		return nil, err
	}
	plan, err := taskgen.Generate(n, l, rng)
	if err != nil {
		return nil, err
	}
	hits, err := platform.PackHITs(plan.Pairs(), 1)
	if err != nil {
		return nil, err
	}
	assigned, err := platform.AssignWorkers(hits, poolSize, workersPerHIT, rng)
	if err != nil {
		return nil, err
	}
	collected, err := platform.RunNonInteractive(hits, assigned, oracle, 0.025)
	if err != nil {
		return nil, err
	}

	// Run the shared pipeline once up to the closure, then search twice.
	opts := core.DefaultOptions()
	sapsRes, exactRes, exactName, err := amtSearchBoth(n, poolSize, collected.Votes, opts, rng)
	if err != nil {
		return nil, err
	}

	agreement, err := kendall.Accuracy(sapsRes, exactRes)
	if err != nil {
		return nil, err
	}
	// Diagnostics only: agreement with the hidden latent-score order.
	latent := oracle.ScoreRanking()
	sapsLatent, err := kendall.Accuracy(sapsRes, latent)
	if err != nil {
		return nil, err
	}
	exactLatent, err := kendall.Accuracy(exactRes, latent)
	if err != nil {
		return nil, err
	}
	return &amtRow{
		exactName:   exactName,
		agreement:   agreement,
		sapsLatent:  sapsLatent,
		exactLatent: exactLatent,
	}, nil
}

// amtSearchBoth runs SAPS and the exact searcher over the same inferred
// closure (identical Step 1-3 output, including the smoothing draws),
// mirroring the paper's TAPS-vs-SAPS comparison.
func amtSearchBoth(n, m int, votes []crowd.Vote, opts core.Options, rng *rand.Rand) (saps, exact []int, exactName string, err error) {
	cl, err := core.BuildClosure(n, m, votes, opts, rand.New(rand.NewPCG(7, rng.Uint64())))
	if err != nil {
		return nil, nil, "", err
	}
	opts.Searcher = core.SearcherSAPS
	sapsRun, _, err := core.Search(context.Background(), cl.Closure, opts, rand.New(rand.NewPCG(11, 17)))
	if err != nil {
		return nil, nil, "", err
	}

	// TAPS's factorial lists fit only up to ~8 objects under the all-pairs
	// objective; the 20-image setting uses the exact Held-Karp DP.
	opts.Searcher = core.SearcherHeldKarp
	exactName = "HeldKarp"
	if n <= 8 {
		opts.Searcher = core.SearcherTAPS
		exactName = "TAPS"
	}
	exactRun, _, err := core.Search(context.Background(), cl.Closure, opts, nil)
	if err != nil {
		return nil, nil, "", err
	}
	return sapsRun.Path, exactRun.Path, exactName, nil
}
