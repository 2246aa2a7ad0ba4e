package crowdrank

import (
	"math"
	"testing"
	"time"
)

func TestPlanTasks(t *testing.T) {
	plan, err := PlanTasks(20, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 20 || plan.L != 50 || len(plan.Pairs) != 50 {
		t.Fatalf("plan = %+v", plan)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if plan.TargetDegree != 5 {
		t.Errorf("TargetDegree = %d", plan.TargetDegree)
	}
	if _, err := PlanTasks(20, 10, 1); err == nil {
		t.Error("l < n-1 should fail")
	}
}

func TestPlanTasksRatioAndBudget(t *testing.T) {
	plan, err := PlanTasksRatio(100, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.L != 495 {
		t.Errorf("L = %d, want 495", plan.L)
	}
	b := Budget{Total: 12.5, Reward: 0.025, WorkersPerTask: 10}
	if l, err := b.MaxTasks(); err != nil || l != 50 {
		t.Errorf("MaxTasks = %d, %v", l, err)
	}
	bPlan, err := PlanTasksBudget(20, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bPlan.L != 50 {
		t.Errorf("budget plan L = %d", bPlan.L)
	}
	// A budget larger than all pairs clamps to C(n,2).
	rich := Budget{Total: 1e6, Reward: 0.025, WorkersPerTask: 10}
	richPlan, err := PlanTasksBudget(10, rich, 4)
	if err != nil {
		t.Fatal(err)
	}
	if richPlan.L != 45 {
		t.Errorf("rich plan L = %d, want 45", richPlan.L)
	}
}

func TestPlanFairnessHelpers(t *testing.T) {
	plan, err := PlanTasks(30, 90, 5) // target degree 6
	if err != nil {
		t.Fatal(err)
	}
	probs := plan.FairnessProbability()
	if len(probs) != 30 {
		t.Fatal("FairnessProbability length wrong")
	}
	lo, hi := probs[0], probs[0]
	for _, p := range probs {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	// Near-regular: the in/out-probabilities differ by at most a factor 9
	// (two degree steps), typically equal.
	if hi/lo > 9+1e-9 {
		t.Errorf("fairness spread too wide: %v .. %v", lo, hi)
	}
	bound, err := plan.HPLikelihoodLowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound < 0 || bound > 1 {
		t.Errorf("bound = %v", bound)
	}
	degrees := plan.Degrees()
	sum := 0
	for _, d := range degrees {
		sum += d
	}
	if sum != 180 {
		t.Errorf("degree sum = %d, want 2L", sum)
	}
}

func TestPlanPackHITs(t *testing.T) {
	plan, err := PlanTasks(10, 20, 6)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := plan.PackHITs(3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, h := range hits {
		if len(h.Pairs) > 3 {
			t.Fatal("HIT too large")
		}
		total += len(h.Pairs)
	}
	if total != 20 {
		t.Errorf("packed %d pairs", total)
	}
	if _, err := plan.PackHITs(0); err == nil {
		t.Error("perHIT=0 should fail")
	}
}

func TestSimulateVotes(t *testing.T) {
	plan, err := PlanTasksRatio(30, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(8)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Votes) != plan.L*cfg.WorkersPerTask {
		t.Errorf("votes = %d, want %d", len(round.Votes), plan.L*cfg.WorkersPerTask)
	}
	if len(round.GroundTruth) != 30 || len(round.WorkerSigmas) != cfg.Workers {
		t.Error("round metadata wrong")
	}
	if round.Spent != float64(len(round.Votes)) {
		t.Errorf("spent = %v", round.Spent)
	}
	// Determinism.
	round2, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range round.Votes {
		if round.Votes[i] != round2.Votes[i] {
			t.Fatal("simulation not deterministic under fixed seed")
		}
	}
}

func TestSimulateVotesValidation(t *testing.T) {
	plan, _ := PlanTasksRatio(10, 0.5, 1)
	bad := DefaultSimConfig(1)
	bad.Workers = 0
	if _, err := SimulateVotes(plan, bad); err == nil {
		t.Error("workers=0 should fail")
	}
	bad = DefaultSimConfig(1)
	bad.WorkersPerTask = 99
	if _, err := SimulateVotes(plan, bad); err == nil {
		t.Error("w > m should fail")
	}
	bad = DefaultSimConfig(1)
	bad.PairsPerHIT = 0
	if _, err := SimulateVotes(plan, bad); err == nil {
		t.Error("PairsPerHIT=0 should fail")
	}
	bad = DefaultSimConfig(1)
	bad.Distribution = 0
	if _, err := SimulateVotes(plan, bad); err == nil {
		t.Error("unknown distribution should fail")
	}
	bad = DefaultSimConfig(1)
	bad.Level = 0
	if _, err := SimulateVotes(plan, bad); err == nil {
		t.Error("unknown level should fail")
	}
	if _, err := SimulateVotes(nil, DefaultSimConfig(1)); err == nil {
		t.Error("nil plan should fail")
	}
}

func TestInferEndToEnd(t *testing.T) {
	plan, err := PlanTasksRatio(50, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(12)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer(plan.N, cfg.Workers, round.Votes, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(res.Ranking, round.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("end-to-end accuracy = %v", acc)
	}
	if res.Timings.Total() <= 0 {
		t.Error("timings missing")
	}
	if len(res.WorkerQuality) != cfg.Workers {
		t.Error("worker quality length wrong")
	}
}

// TestStepTimingsMonotonicSafe pins the duration contract on the public
// result: every pipeline stage is measured with time.Since, which reads
// the monotonic clock, so no component can be negative even if the wall
// clock is stepped mid-inference — and Total is exactly the sum of the
// four components, nothing more.
func TestStepTimingsMonotonicSafe(t *testing.T) {
	plan, _ := PlanTasksRatio(15, 0.5, 41)
	round, _ := SimulateVotes(plan, DefaultSimConfig(42))
	res, err := Infer(plan.N, 30, round.Votes, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	for name, d := range map[string]time.Duration{
		"TruthDiscovery": tm.TruthDiscovery,
		"Smoothing":      tm.Smoothing,
		"Propagation":    tm.Propagation,
		"Search":         tm.Search,
	} {
		if d < 0 {
			t.Errorf("StepTimings.%s = %v; monotonic durations cannot be negative", name, d)
		}
	}
	if sum := tm.TruthDiscovery + tm.Smoothing + tm.Propagation + tm.Search; tm.Total() != sum {
		t.Errorf("Total() = %v, want the component sum %v", tm.Total(), sum)
	}
}

func TestInferDeterministicWithSeed(t *testing.T) {
	plan, _ := PlanTasksRatio(20, 0.4, 21)
	round, _ := SimulateVotes(plan, DefaultSimConfig(22))
	a, err := Infer(plan.N, 30, round.Votes, WithSeed(5), WithSearch(SearchSAPS))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(plan.N, 30, round.Votes, WithSeed(5), WithSearch(SearchSAPS))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ranking {
		if a.Ranking[i] != b.Ranking[i] {
			t.Fatal("Infer not deterministic with WithSeed")
		}
	}
}

func TestInferOptions(t *testing.T) {
	plan, _ := PlanTasksRatio(12, 0.6, 31)
	round, _ := SimulateVotes(plan, DefaultSimConfig(32))
	_, err := Infer(plan.N, 30, round.Votes,
		WithSeed(1),
		WithAlpha(0.7),
		WithMaxHops(2),
		WithSearch(SearchHeldKarp),
		WithObjective(AllPairsObjective),
		WithSAPS(100, 0.5, 0.95, 4),
		WithTruthDiscovery(0.05, 15, 1e-5),
		WithSmoothing(1e-3, 0.4),
	)
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	if _, err := Infer(plan.N, 30, round.Votes, WithSearch(SearchAlgorithm(99))); err == nil {
		t.Error("unknown search should fail")
	}
	if _, err := Infer(plan.N, 30, round.Votes, WithObjective(PathObjective(99))); err == nil {
		t.Error("unknown objective should fail")
	}
	identity := make([]int, plan.N)
	for i := range identity {
		identity[i] = i
	}
	if _, err := CertifyRanking(plan.N, 30, round.Votes, identity, WithObjective(PathObjective(99))); err == nil {
		t.Error("CertifyRanking with an unknown objective should fail")
	}
	if _, err := Infer(plan.N, 30, round.Votes, WithAlpha(2)); err == nil {
		t.Error("alpha out of range should fail at validation")
	}
}

func TestInferConsecutiveObjectiveRuns(t *testing.T) {
	plan, _ := PlanTasksRatio(10, 0.8, 41)
	round, _ := SimulateVotes(plan, DefaultSimConfig(42))
	res, err := Infer(plan.N, 30, round.Votes,
		WithSeed(2), WithObjective(ConsecutiveObjective), WithSearch(SearchHeldKarp))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranking) != 10 {
		t.Error("ranking length wrong")
	}
}

func TestInferParallelismDeterministic(t *testing.T) {
	plan, _ := PlanTasksRatio(40, 0.3, 61)
	round, _ := SimulateVotes(plan, DefaultSimConfig(62))
	seq, err := Infer(plan.N, 30, round.Votes,
		WithSeed(63), WithSearch(SearchSAPS))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Infer(plan.N, 30, round.Votes,
		WithSeed(63), WithSearch(SearchSAPS), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Ranking {
		if seq.Ranking[i] != par.Ranking[i] {
			t.Fatalf("parallel SAPS changed the result: %v vs %v", par.Ranking, seq.Ranking)
		}
	}
}

func TestMetricsFacade(t *testing.T) {
	a := []int{0, 1, 2, 3}
	b := []int{3, 2, 1, 0}
	if d, _ := KendallTauDistance(a, b); d != 1 {
		t.Errorf("distance = %v", d)
	}
	if acc, _ := Accuracy(a, b); acc != 0 {
		t.Errorf("accuracy = %v", acc)
	}
	if tau, _ := KendallTau(a, b); tau != -1 {
		t.Errorf("tau = %v", tau)
	}
	if rho, _ := SpearmanRho(a, a); math.Abs(rho-1) > 1e-12 {
		t.Errorf("rho = %v", rho)
	}
	if ov, _ := TopKOverlap(a, b, 2); ov != 0 {
		t.Errorf("overlap = %v", ov)
	}
}

func TestBaselinesFacade(t *testing.T) {
	plan, err := PlanTasksRatio(20, 0.8, 51)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(52)
	cfg.Level = HighQualityWorkers
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []BaselineName{BaselineRC, BaselineQS, BaselineMajority, BaselineBorda, BaselineCrowdBT, BaselineBTL} {
		ranking, err := RunBaseline(name, plan.N, cfg.Workers, round.Votes, 53)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := make([]bool, plan.N)
		for _, v := range ranking {
			if v < 0 || v >= plan.N || seen[v] {
				t.Fatalf("%s produced a non-permutation: %v", name, ranking)
			}
			seen[v] = true
		}
	}
	if _, err := RunBaseline("nope", plan.N, cfg.Workers, round.Votes, 1); err == nil {
		t.Error("unknown baseline should fail")
	}
}

func TestBaselineQualityOrderingAtHighBudget(t *testing.T) {
	// At r=0.8 with high-quality workers, majority/Borda/CrowdBT should be
	// clearly better than random while RC under sparse per-worker coverage
	// is weaker — the Table I shape in miniature.
	plan, err := PlanTasksRatio(30, 0.8, 61)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(62)
	cfg.Level = HighQualityWorkers
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := func(name BaselineName) float64 {
		r, err := RunBaseline(name, plan.N, cfg.Workers, round.Votes, 63)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := Accuracy(r, round.GroundTruth)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if a := acc(BaselineBorda); a < 0.85 {
		t.Errorf("Borda accuracy = %v", a)
	}
	if a := acc(BaselineCrowdBT); a < 0.85 {
		t.Errorf("CrowdBT accuracy = %v", a)
	}
	ours, err := Infer(plan.N, cfg.Workers, round.Votes, WithSeed(64))
	if err != nil {
		t.Fatal(err)
	}
	oursAcc, err := Accuracy(ours.Ranking, round.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	if oursAcc < 0.9 {
		t.Errorf("pipeline accuracy = %v", oursAcc)
	}
}

func TestCrowdBTFitExposesModel(t *testing.T) {
	plan, _ := PlanTasksRatio(10, 1, 71)
	cfg := DefaultSimConfig(72)
	cfg.Level = HighQualityWorkers
	round, _ := SimulateVotes(plan, cfg)
	res, err := CrowdBTFit(plan.N, cfg.Workers, round.Votes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != plan.N || len(res.Reliability) != cfg.Workers || len(res.Ranking) != plan.N {
		t.Error("CrowdBT result shapes wrong")
	}
}

func TestSimulateVotesMultiPairHITs(t *testing.T) {
	// c > 1 comparisons per HIT: each assigned worker answers every pair in
	// the HIT, so the vote count still equals L * w.
	plan, err := PlanTasksRatio(20, 0.5, 71)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(72)
	cfg.PairsPerHIT = 5
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Votes) != plan.L*cfg.WorkersPerTask {
		t.Errorf("votes = %d, want %d", len(round.Votes), plan.L*cfg.WorkersPerTask)
	}
	res, err := Infer(plan.N, cfg.Workers, round.Votes, WithSeed(73))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(res.Ranking, round.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("multi-pair-HIT accuracy = %v", acc)
	}
}

func TestSimulateVotesBalancedAssignment(t *testing.T) {
	plan, err := PlanTasksRatio(30, 0.5, 81)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(82)
	cfg.BalancedAssignment = true
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per-worker vote counts must be near-equal (within one HIT's worth).
	counts := make(map[int]int)
	for _, v := range round.Votes {
		counts[v.Worker]++
	}
	lo, hi := 1<<30, 0
	for w := 0; w < cfg.Workers; w++ {
		c := counts[w]
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > cfg.PairsPerHIT {
		t.Errorf("balanced assignment load spread = %d..%d", lo, hi)
	}
}

func TestInferWithPolish(t *testing.T) {
	plan, _ := PlanTasksRatio(40, 0.2, 91)
	round, _ := SimulateVotes(plan, DefaultSimConfig(92))
	plain, err := Infer(plan.N, 30, round.Votes, WithSeed(93), WithSearch(SearchSAPS))
	if err != nil {
		t.Fatal(err)
	}
	polished, err := Infer(plan.N, 30, round.Votes, WithSeed(93), WithSearch(SearchSAPS), WithPolish(8))
	if err != nil {
		t.Fatal(err)
	}
	if polished.LogProb < plain.LogProb-1e-9 {
		t.Errorf("polish worsened the objective: %v -> %v", plain.LogProb, polished.LogProb)
	}
	accPlain, _ := Accuracy(plain.Ranking, round.GroundTruth)
	accPolished, _ := Accuracy(polished.Ranking, round.GroundTruth)
	if accPolished < accPlain-0.05 {
		t.Errorf("polish hurt accuracy badly: %v -> %v", accPlain, accPolished)
	}
}

func TestInferBranchAndBoundSearcher(t *testing.T) {
	plan, _ := PlanTasksRatio(25, 0.4, 111)
	round, _ := SimulateVotes(plan, DefaultSimConfig(112))
	bb, err := Infer(plan.N, 30, round.Votes, WithSeed(113), WithSearch(SearchBranchBound))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Infer(plan.N, 30, round.Votes, WithSeed(113), WithSearch(SearchSAPS))
	if err != nil {
		t.Fatal(err)
	}
	if sa.LogProb > bb.LogProb+1e-9 {
		t.Errorf("SAPS %v beat the proven optimum %v", sa.LogProb, bb.LogProb)
	}
	// Branch-and-bound rejects the consecutive objective.
	if _, err := Infer(plan.N, 30, round.Votes, WithSeed(113),
		WithSearch(SearchBranchBound), WithObjective(ConsecutiveObjective)); err == nil {
		t.Error("branch-and-bound with the consecutive objective should fail")
	}
}

func TestPublicEnumStrings(t *testing.T) {
	cases := map[string]string{
		GaussianWorkers.String():      "gaussian",
		UniformWorkers.String():       "uniform",
		HighQualityWorkers.String():   "high",
		MediumQualityWorkers.String(): "medium",
		LowQualityWorkers.String():    "low",
		SearchAuto.String():           "auto",
		SearchSAPS.String():           "saps",
		SearchTAPS.String():           "taps",
		SearchHeldKarp.String():       "heldkarp",
		SearchBruteForce.String():     "bruteforce",
		SearchBranchBound.String():    "branchbound",
		AllPairsObjective.String():    "all-pairs",
		ConsecutiveObjective.String(): "consecutive",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if WorkerDistribution(9).String() == "" || SearchAlgorithm(9).String() == "" || PathObjective(9).String() == "" {
		t.Error("unknown enum values should still print")
	}
}

func TestCertifyRanking(t *testing.T) {
	plan, _ := PlanTasksRatio(20, 0.5, 131)
	round, _ := SimulateVotes(plan, DefaultSimConfig(132))
	res, err := Infer(plan.N, 30, round.Votes, WithSeed(133), WithSearch(SearchBranchBound))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CertifyRanking(plan.N, 30, round.Votes, res.Ranking, WithSeed(133))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Gap < 0 {
		t.Errorf("gap must be nonnegative, got %v", cert.Gap)
	}
	if cert.Score > cert.UpperBound {
		t.Errorf("score %v above upper bound %v", cert.Score, cert.UpperBound)
	}
	// The branch-and-bound result is the proven optimum of this closure, so
	// its score is within the certified range by construction; a reversed
	// ranking must certify strictly worse.
	reversed := make([]int, len(res.Ranking))
	for i, v := range res.Ranking {
		reversed[len(res.Ranking)-1-i] = v
	}
	worse, err := CertifyRanking(plan.N, 30, round.Votes, reversed, WithSeed(133))
	if err != nil {
		t.Fatal(err)
	}
	if worse.Gap <= cert.Gap {
		t.Errorf("reversed ranking gap %v should exceed optimum gap %v", worse.Gap, cert.Gap)
	}
}
