package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"crowdrank/internal/core"
	"crowdrank/internal/kendall"
	"crowdrank/internal/search"
)

// Ablation sweeps the design choices DESIGN.md calls out:
//
//   - the direct/indirect blend weight alpha (Step 3),
//   - the propagation hop bound H (Step 3),
//   - the evidence-shrinkage prior strength (Step 3),
//   - the smoothing clamp (Step 2),
//   - the Step 4 objective reading (all-pairs vs the literal consecutive
//     product — the DESIGN.md "objective reading" finding), and
//   - SAPS restart count.
func Ablation(w io.Writer, scale Scale) error {
	n, ratio := 100, 0.1
	if scale == ScaleQuick {
		n = 50
	}

	if err := ablateAlpha(w, n, ratio); err != nil {
		return err
	}
	if err := ablateHops(w, n, ratio); err != nil {
		return err
	}
	if err := ablatePrior(w, n, ratio); err != nil {
		return err
	}
	if err := ablateSmoothing(w, n, ratio); err != nil {
		return err
	}
	if err := ablateObjective(w, n, ratio); err != nil {
		return err
	}
	if err := ablateStarts(w, n, ratio); err != nil {
		return err
	}
	return ablatePolish(w, n, ratio)
}

func ablateAlpha(w io.Writer, n int, ratio float64) error {
	header(w, fmt.Sprintf("Ablation: direct/indirect blend alpha (n=%d, r=%.1f)", n, ratio))
	t := newTable(w, "alpha", "accuracy", "tau")
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		cfg := DefaultRunConfig(n, ratio, 4242)
		cfg.Opts.Propagate.Alpha = alpha
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation alpha=%v: %w", alpha, err)
		}
		t.row(fmt.Sprintf("%.2f", alpha), res.Accuracy, res.Tau)
	}
	return nil
}

func ablateHops(w io.Writer, n int, ratio float64) error {
	header(w, fmt.Sprintf("Ablation: propagation hop bound (n=%d, r=%.1f)", n, ratio))
	t := newTable(w, "hops", "accuracy", "tau", "step3")
	for _, hops := range []int{1, 2, 3, 4, 5} {
		cfg := DefaultRunConfig(n, ratio, 4242)
		cfg.Opts.Propagate.MaxHops = hops
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation hops=%d: %w", hops, err)
		}
		t.row(hops, res.Accuracy, res.Tau, res.Timings.Propagation)
	}
	return nil
}

func ablatePrior(w io.Writer, n int, ratio float64) error {
	header(w, fmt.Sprintf("Ablation: indirect-evidence shrinkage prior (n=%d, r=%.1f)", n, ratio))
	t := newTable(w, "prior", "accuracy", "tau")
	for _, prior := range []float64{0, 0.5, 1, 2, 5} {
		cfg := DefaultRunConfig(n, ratio, 4242)
		cfg.Opts.Propagate.PriorStrength = prior
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation prior=%v: %w", prior, err)
		}
		t.row(fmt.Sprintf("%.1f", prior), res.Accuracy, res.Tau)
	}
	return nil
}

func ablateSmoothing(w io.Writer, n int, ratio float64) error {
	header(w, fmt.Sprintf("Ablation: smoothing clamp [minDelta, maxDelta] (n=%d, r=%.1f)", n, ratio))
	t := newTable(w, "minDelta", "maxDelta", "accuracy", "oneEdges")
	for _, clamp := range [][2]float64{{1e-4, 0.1}, {1e-3, 0.25}, {1e-3, 0.499}, {0.05, 0.499}} {
		cfg := DefaultRunConfig(n, ratio, 4242)
		cfg.Opts.Smooth.MinDelta = clamp[0]
		cfg.Opts.Smooth.MaxDelta = clamp[1]
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation clamp=%v: %w", clamp, err)
		}
		t.row(fmt.Sprintf("%.4f", clamp[0]), fmt.Sprintf("%.3f", clamp[1]), res.Accuracy, res.OneEdges)
	}
	return nil
}

// ablateObjective demonstrates the DESIGN.md objective-reading finding on
// live data: over the same closure, optimizing the all-pairs objective
// preserves accuracy while optimizing the literal consecutive product
// degrades it even as its own score improves.
func ablateObjective(w io.Writer, n int, ratio float64) error {
	header(w, fmt.Sprintf("Ablation: Step 4 objective reading (n=%d, r=%.1f)", n, ratio))
	cfg := DefaultRunConfig(n, ratio, 4242)
	round, err := NewRound(cfg)
	if err != nil {
		return err
	}
	cl, err := core.BuildClosure(cfg.N, cfg.Workers, round.Votes, cfg.Opts,
		rand.New(rand.NewPCG(cfg.Seed, 3)))
	if err != nil {
		return err
	}
	t := newTable(w, "objective", "iterations", "accuracy", "tau", "logProb")
	for _, obj := range []search.Objective{search.ObjectiveAllPairs, search.ObjectiveConsecutive} {
		for _, iters := range []int{1, 200, 1000} {
			opts := cfg.Opts
			opts.Searcher = core.SearcherSAPS
			opts.Objective = obj
			opts.SAPS.Iterations = iters
			res, _, err := core.Search(context.Background(), cl.Closure, opts, rand.New(rand.NewPCG(9, 9)))
			if err != nil {
				return fmt.Errorf("ablation objective=%v: %w", obj, err)
			}
			acc, err := kendall.Accuracy(res.Path, round.Truth)
			if err != nil {
				return err
			}
			tau, err := kendall.Tau(res.Path, round.Truth)
			if err != nil {
				return err
			}
			t.row(obj.String(), iters, acc, tau, fmt.Sprintf("%.1f", res.LogProb))
		}
	}
	return nil
}

func ablatePolish(w io.Writer, n int, ratio float64) error {
	header(w, fmt.Sprintf("Ablation: insertion-polish sweeps after SAPS (n=%d, r=%.1f)", n, ratio))
	t := newTable(w, "sweeps", "accuracy", "tau")
	for _, sweeps := range []int{0, 2, 8, 16} {
		cfg := DefaultRunConfig(n, ratio, 4242)
		cfg.Opts.Searcher = core.SearcherSAPS
		cfg.Opts.PolishSweeps = sweeps
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation polish=%d: %w", sweeps, err)
		}
		t.row(sweeps, res.Accuracy, res.Tau)
	}
	return nil
}

func ablateStarts(w io.Writer, n int, ratio float64) error {
	header(w, fmt.Sprintf("Ablation: SAPS restart count (n=%d, r=%.1f)", n, ratio))
	t := newTable(w, "starts", "accuracy", "step4")
	for _, starts := range []int{1, 4, 8, 16} {
		cfg := DefaultRunConfig(n, ratio, 4242)
		cfg.Opts.Searcher = core.SearcherSAPS
		cfg.Opts.SAPS.Starts = starts
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation starts=%d: %w", starts, err)
		}
		t.row(starts, res.Accuracy, res.Timings.Search)
	}
	return nil
}
