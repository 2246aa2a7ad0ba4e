package crowdrank

// Benchmarks: one testing.B benchmark per paper table/figure, each running
// the corresponding experiment generator at quick scale (see
// internal/bench and DESIGN.md's per-experiment index; cmd/experiments runs
// the paper-scale versions). Additional micro-benchmarks cover the pipeline
// steps individually so regressions localize.

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"crowdrank/internal/bench"
	"crowdrank/internal/core"
	"crowdrank/internal/search"
	"crowdrank/internal/truth"
)

func benchExperiment(b *testing.B, fn func(io.Writer, bench.Scale) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, bench.ScaleQuick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (SAPS inference time vs object count).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, bench.Fig3) }

// BenchmarkFig4 regenerates Figure 4 (inference time vs selection ratio,
// with the per-step breakdown).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, bench.Fig4) }

// BenchmarkFig5 regenerates Figure 5 (accuracy vs object count and ratio).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, bench.Fig5) }

// BenchmarkFig6 regenerates Figure 6 (SAPS vs baselines across budgets and
// worker quality).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, bench.Fig6) }

// BenchmarkTable1 regenerates Table I (SAPS vs RC vs QS vs CrowdBT).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, bench.Table1) }

// BenchmarkAMT regenerates the Section VI-D AMT study on the synthetic
// PubFig stand-in (exact-vs-SAPS agreement).
func BenchmarkAMT(b *testing.B) { benchExperiment(b, bench.AMT) }

// BenchmarkConvergence regenerates the Section V-A convergence report.
func BenchmarkConvergence(b *testing.B) { benchExperiment(b, bench.Convergence) }

// BenchmarkAblation regenerates the design-choice ablations (alpha, hops,
// shrinkage prior, smoothing clamp, objective reading, SAPS restarts).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, bench.Ablation) }

// BenchmarkMakespan regenerates the DES marketplace makespan comparison
// (non-interactive batch vs interactive round-trips).
func BenchmarkMakespan(b *testing.B) { benchExperiment(b, bench.Makespan) }

// BenchmarkRobustness regenerates the robustness sweeps (adversary
// fraction, replication, pool size).
func BenchmarkRobustness(b *testing.B) { benchExperiment(b, bench.Robustness) }

// BenchmarkWorkers regenerates the worker-quality estimation evaluation
// (estimated vs true per-worker accuracy).
func BenchmarkWorkers(b *testing.B) { benchExperiment(b, bench.Workers) }

// BenchmarkTopK regenerates the top-k extension evaluation (prefix quality
// vs budget).
func BenchmarkTopK(b *testing.B) { benchExperiment(b, bench.TopK) }

// BenchmarkFaults regenerates the fault-injection sweep (dropout rate vs
// delivery, coverage, and accuracy, with and without repair).
func BenchmarkFaults(b *testing.B) { benchExperiment(b, bench.Faults) }

// ---- Pipeline micro-benchmarks ----

// BenchmarkPlanTasks measures task-graph generation (Algorithm 1).
func BenchmarkPlanTasks(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(byN(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PlanTasksRatio(n, 0.1, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInfer measures the full inference pipeline on pre-simulated
// rounds of increasing size.
func BenchmarkInfer(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		plan, err := PlanTasksRatio(n, 0.1, 7)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSimConfig(8)
		round, err := SimulateVotes(plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(byN(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Infer(plan.N, cfg.Workers, round.Votes, WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSAPSSearch isolates Step 4 at n=200: the closure is built once,
// outside the timer, and each sub-benchmark times one searcher on it — the
// paper's SAPS (the Infer default) and the polished floor crowdrankd
// serves (net-score order plus insertion polish).
func BenchmarkSAPSSearch(b *testing.B) {
	const n = 200
	plan, err := PlanTasksRatio(n, 0.1, 9)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(10)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.BuildClosure(plan.N, cfg.Workers, round.Votes, core.DefaultOptions(), rand.New(rand.NewPCG(9, 10)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("saps", func(b *testing.B) {
		params := search.DefaultSAPSParams()
		for i := 0; i < b.N; i++ {
			if _, err := search.SAPS(cl.Closure, params, rand.New(rand.NewPCG(uint64(i), 11))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("floor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.Greedy(cl.Closure, search.ObjectiveAllPairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildClosure times Steps 1-3 at crowdrankd's scale (n=200,
// m=30, one r=0.1 round of 19,900 votes) and reports the per-step means.
// cold indexes every vote and builds, as core.BuildClosure does; fold20
// adds 20 votes to an index already holding the rest and builds, as
// crowdrankd does when a rank follows a 20-vote batch.
func BenchmarkBuildClosure(b *testing.B) {
	const n = 200
	plan, err := PlanTasksRatio(n, 0.1, 9)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(10)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	votes := round.Votes
	opts := core.DefaultOptions()
	report := func(b *testing.B, sum core.StepTimings) {
		perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
		b.ReportMetric(perOp(sum.TruthDiscovery), "truth_ms")
		b.ReportMetric(perOp(sum.Smoothing), "smooth_ms")
		b.ReportMetric(perOp(sum.Propagation), "propagate_ms")
	}
	add := func(sum *core.StepTimings, t core.StepTimings) {
		sum.TruthDiscovery += t.TruthDiscovery
		sum.Smoothing += t.Smoothing
		sum.Propagation += t.Propagation
	}
	b.Run("cold", func(b *testing.B) {
		var sum core.StepTimings
		for i := 0; i < b.N; i++ {
			cl, err := core.BuildClosure(plan.N, cfg.Workers, votes, opts, core.NewPipelineRNG(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			add(&sum, cl.Timings)
		}
		report(b, sum)
	})
	b.Run("fold20", func(b *testing.B) {
		loaded, fresh := votes[:len(votes)-20], votes[len(votes)-20:]
		var sum core.StepTimings
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			idx, err := truth.NewIndex(plan.N, cfg.Workers)
			if err != nil {
				b.Fatal(err)
			}
			if err := idx.Add(loaded); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			cl, err := core.BuildClosureFrom(idx, fresh, opts, core.NewPipelineRNG(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			add(&sum, cl.Timings)
		}
		report(b, sum)
	})
}

// BenchmarkKendall measures the O(n log n) Kendall distance on large
// rankings.
func BenchmarkKendall(b *testing.B) {
	const n = 10000
	a := make([]int, n)
	c := make([]int, n)
	for i := range a {
		a[i] = i
		c[n-1-i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KendallTauDistance(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines measures the competing aggregators on a shared round.
func BenchmarkBaselines(b *testing.B) {
	const n = 100
	plan, err := PlanTasksRatio(n, 0.5, 11)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(12)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []BaselineName{BaselineRC, BaselineQS, BaselineMajority, BaselineBorda, BaselineCrowdBT} {
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunBaseline(name, plan.N, cfg.Workers, round.Votes, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byN(n int) string { return fmt.Sprintf("n=%d", n) }
