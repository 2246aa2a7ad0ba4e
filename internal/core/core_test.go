package core

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/kendall"
	"crowdrank/internal/platform"
	"crowdrank/internal/search"
	"crowdrank/internal/simulate"
	"crowdrank/internal/taskgen"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 61)) }

// simulateRound produces a complete simulated crowdsourcing round.
func simulateRound(t testing.TB, n, m, w int, ratio float64, dist simulate.QualityDistribution,
	level simulate.QualityLevel, seed uint64) ([]crowd.Vote, []int) {
	t.Helper()
	rng := newRNG(seed)
	l, err := taskgen.PairsForRatio(n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := taskgen.Generate(n, l, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := simulate.GroundTruth(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := simulate.NewCrowd(m, dist, level, rng)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := simulate.NewGroundTruthOracle(pool, truth, rng)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := platform.PackHITs(plan.Pairs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := platform.AssignWorkers(hits, m, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	round, err := platform.RunNonInteractive(hits, assigned, oracle, 1)
	if err != nil {
		t.Fatal(err)
	}
	return round.Votes, truth
}

func TestInferEndToEndAccuracy(t *testing.T) {
	// Integration: the full pipeline must hit the paper-scale accuracy
	// floors under medium-quality workers.
	tests := []struct {
		name     string
		n        int
		ratio    float64
		dist     simulate.QualityDistribution
		minAccur float64
	}{
		{"gaussian n=50 r=0.3", 50, 0.3, simulate.Gaussian, 0.85},
		{"gaussian n=100 r=0.1", 100, 0.1, simulate.Gaussian, 0.85},
		{"uniform n=50 r=0.5", 50, 0.5, simulate.Uniform, 0.85},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			votes, truth := simulateRound(t, tc.n, 30, 10, tc.ratio, tc.dist, simulate.MediumQuality, 77)
			res, err := Infer(tc.n, 30, votes, DefaultOptions(), newRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			acc, err := kendall.Accuracy(res.Ranking, truth)
			if err != nil {
				t.Fatal(err)
			}
			if acc < tc.minAccur {
				t.Errorf("accuracy = %v, want >= %v", acc, tc.minAccur)
			}
			if res.Timings.Total() <= 0 {
				t.Error("timings not recorded")
			}
			if res.TruthIterations < 1 {
				t.Error("truth iterations not recorded")
			}
		})
	}
}

func TestInferDeterministicUnderFixedSeed(t *testing.T) {
	votes, _ := simulateRound(t, 30, 20, 8, 0.3, simulate.Gaussian, simulate.MediumQuality, 11)
	a, err := Infer(30, 20, votes, DefaultOptions(), newRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(30, 20, votes, DefaultOptions(), newRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ranking {
		if a.Ranking[i] != b.Ranking[i] {
			t.Fatalf("non-deterministic ranking: %v vs %v", a.Ranking, b.Ranking)
		}
	}
}

func TestInferSearcherSelection(t *testing.T) {
	votes, _ := simulateRound(t, 10, 10, 5, 0.5, simulate.Gaussian, simulate.HighQuality, 13)
	// Auto on a small instance resolves to Held-Karp.
	res, err := Infer(10, 10, votes, DefaultOptions(), newRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.SearcherUsed != SearcherHeldKarp {
		t.Errorf("auto on n=10 used %v", res.SearcherUsed)
	}
	// Explicit searchers all work and agree on the exact optimum.
	var exactLog float64
	for idx, s := range []Searcher{SearcherHeldKarp, SearcherBruteForce, SearcherTAPS} {
		opts := DefaultOptions()
		opts.Searcher = s
		if s == SearcherTAPS || s == SearcherBruteForce {
			// TAPS all-pairs is limited to n=8; use a smaller instance.
			continue
		}
		r, err := Infer(10, 10, votes, opts, newRNG(2))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if idx == 0 {
			exactLog = r.LogProb
		} else if r.LogProb != exactLog {
			t.Errorf("%v disagrees with Held-Karp: %v vs %v", s, r.LogProb, exactLog)
		}
	}
	// SAPS runs on the same instance.
	opts := DefaultOptions()
	opts.Searcher = SearcherSAPS
	if _, err := Infer(10, 10, votes, opts, newRNG(3)); err != nil {
		t.Fatalf("SAPS: %v", err)
	}
}

func TestInferExactSearchersAgreeSmall(t *testing.T) {
	votes, _ := simulateRound(t, 7, 8, 4, 0.8, simulate.Gaussian, simulate.MediumQuality, 17)
	logs := map[Searcher]float64{}
	for _, s := range []Searcher{SearcherHeldKarp, SearcherBruteForce, SearcherTAPS} {
		opts := DefaultOptions()
		opts.Searcher = s
		r, err := Infer(7, 8, votes, opts, newRNG(4))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		logs[s] = r.LogProb
	}
	// Summation association differs between searchers, so allow float
	// round-off at the last digit.
	const tol = 1e-9
	hk := logs[SearcherHeldKarp]
	if diff := logs[SearcherBruteForce] - hk; diff > tol || diff < -tol {
		t.Errorf("exact searchers disagree: %v", logs)
	}
	if diff := logs[SearcherTAPS] - hk; diff > tol || diff < -tol {
		t.Errorf("exact searchers disagree: %v", logs)
	}
}

func TestInferValidation(t *testing.T) {
	votes := []crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}}
	if _, err := Infer(2, 1, votes, DefaultOptions(), nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := Infer(2, 1, nil, DefaultOptions(), newRNG(1)); err == nil {
		t.Error("no votes should fail")
	}
	// An unknown searcher is rejected before Step 1 runs: Step 1 would
	// report the missing votes instead.
	opts := DefaultOptions()
	opts.Searcher = Searcher(99)
	if _, err := Infer(2, 1, nil, opts, newRNG(1)); err == nil || !strings.Contains(err.Error(), "unknown searcher") {
		t.Errorf("unknown searcher: err = %v", err)
	}
}

func TestInferAdversarialWorkersSuppressed(t *testing.T) {
	// 8 honest workers + 4 always-wrong workers. The pipeline must still
	// recover the order and assign the adversaries lower quality.
	rng := newRNG(23)
	n := 20
	l, err := taskgen.PairsForRatio(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := taskgen.Generate(n, l, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := simulate.GroundTruth(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, n)
	for r, o := range truth {
		pos[o] = r
	}
	var votes []crowd.Vote
	const honest, total = 8, 12
	for _, pr := range plan.Pairs() {
		truthPref := pos[pr.I] < pos[pr.J]
		for w := 0; w < total; w++ {
			prefers := truthPref
			if w >= honest {
				prefers = !truthPref
			}
			votes = append(votes, crowd.Vote{Worker: w, I: pr.I, J: pr.J, PrefersI: prefers})
		}
	}
	res, err := Infer(n, total, votes, DefaultOptions(), newRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := kendall.Accuracy(res.Ranking, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("accuracy with adversaries = %v", acc)
	}
	for w := honest; w < total; w++ {
		if res.WorkerQuality[w] >= res.WorkerQuality[0] {
			t.Errorf("adversary %d quality %v >= honest quality %v",
				w, res.WorkerQuality[w], res.WorkerQuality[0])
		}
	}
}

func TestInferObjectiveOption(t *testing.T) {
	votes, _ := simulateRound(t, 12, 10, 5, 0.6, simulate.Gaussian, simulate.HighQuality, 31)
	opts := DefaultOptions()
	opts.Objective = 99
	if _, err := Infer(12, 10, votes, opts, newRNG(1)); err == nil {
		t.Error("invalid objective should fail in the searcher")
	}
}

// TestSearch runs Step 4 alone over a hand-built closure: every searcher
// finds the consistent order, Auto resolves to Held-Karp, opts.Objective
// overrides the SAPS params' own, and an unknown searcher is an error.
func TestSearch(t *testing.T) {
	g, err := graph.NewPreferenceGraph(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if err := g.SetWeight(i, j, 0.9); err != nil {
				t.Fatal(err)
			}
			if err := g.SetWeight(j, i, 0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := DefaultOptions()
	opts.SAPS.Objective = 99 // invalid, but Search must use opts.Objective
	for _, s := range []Searcher{SearcherAuto, SearcherSAPS, SearcherTAPS, SearcherHeldKarp, SearcherBruteForce, SearcherBranchBound} {
		opts.Searcher = s
		r, used, err := Search(context.Background(), g, opts, newRNG(7))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for i, v := range r.Path {
			if v != i {
				t.Fatalf("%v: path %v should be identity", s, r.Path)
			}
		}
		want := s
		if s == SearcherAuto {
			want = SearcherHeldKarp
		}
		if used != want {
			t.Errorf("%v: used %v, want %v", s, used, want)
		}
	}
	opts.Searcher = Searcher(99)
	if _, _, err := Search(context.Background(), g, opts, newRNG(7)); err == nil {
		t.Error("unknown searcher should fail")
	}
}

func TestSearcherString(t *testing.T) {
	names := map[Searcher]string{
		SearcherAuto: "auto", SearcherSAPS: "saps", SearcherTAPS: "taps",
		SearcherHeldKarp: "heldkarp", SearcherBruteForce: "bruteforce",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if Searcher(42).String() == "" {
		t.Error("unknown searcher should still print")
	}
}

func TestSAPSMatchesBranchAndBoundOnRealClosure(t *testing.T) {
	// On an actual pipeline closure at n=30 (beyond Held-Karp's reach) the
	// branch-and-bound proves the optimum; SAPS must match it or fall only
	// marginally short.
	votes, _ := simulateRound(t, 30, 20, 10, 0.4, simulate.Gaussian, simulate.MediumQuality, 555)
	cl, err := BuildClosure(30, 20, votes, DefaultOptions(), newRNG(556))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := search.BranchAndBound(cl.Closure, search.BranchAndBoundParams{})
	if err != nil {
		t.Fatalf("branch and bound on a real closure should prove optimality: %v", err)
	}
	params := DefaultOptions().SAPS
	params.Iterations = 400
	sa, err := search.SAPS(cl.Closure, params, newRNG(557))
	if err != nil {
		t.Fatal(err)
	}
	if sa.LogProb > exact.LogProb+1e-9 {
		t.Fatalf("SAPS %v beat the proven optimum %v", sa.LogProb, exact.LogProb)
	}
	// SAPS is a heuristic; allow a small optimality gap (the closure's
	// total log-mass is in the hundreds).
	gap := exact.LogProb - sa.LogProb
	if gap > 5.0 {
		t.Errorf("SAPS trails the optimum by %v log units", gap)
	}
}

// TestPolishedFloorOnRealClosure: on a seeded n=200 pipeline closure the
// floor (search.Greedy) is an insertion local optimum — no single move of
// one object to another position raises its all-pairs log probability —
// and it scores at least the unpolished net-score order it starts from.
func TestPolishedFloorOnRealClosure(t *testing.T) {
	const n, m = 200, 30
	votes, _ := simulateRound(t, n, m, 10, 0.1, simulate.Gaussian, simulate.MediumQuality, 571)
	cl, err := BuildClosure(n, m, votes, DefaultOptions(), newRNG(572))
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Closure
	floor, err := search.Greedy(g, search.ObjectiveAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := search.Certify(g, floor.Path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cert.Score-floor.LogProb) > 1e-6 {
		t.Fatalf("floor reports log_prob %v, certified score %v", floor.LogProb, cert.Score)
	}

	// Moving floor[from] to position to flips its order against every
	// object it crosses; the gains add up crossing by crossing.
	lw := func(i, j int) float64 { return math.Log(g.Weight(i, j)) }
	for from, x := range floor.Path {
		gain := 0.0
		for to := from - 1; to >= 0; to-- {
			y := floor.Path[to]
			if gain += lw(x, y) - lw(y, x); gain > 1e-9 {
				t.Fatalf("moving object %d from %d to %d gains %v", x, from, to, gain)
			}
		}
		gain = 0.0
		for to := from + 1; to < n; to++ {
			y := floor.Path[to]
			if gain += lw(y, x) - lw(x, y); gain > 1e-9 {
				t.Fatalf("moving object %d from %d to %d gains %v", x, from, to, gain)
			}
		}
	}

	// The unpolished start: objects by net weight sum_j w_ij - w_ji.
	net := make([]float64, n)
	start := make([]int, n)
	for i := range start {
		start[i] = i
		for j := 0; j < n; j++ {
			if j != i {
				net[i] += g.Weight(i, j) - g.Weight(j, i)
			}
		}
	}
	sort.SliceStable(start, func(a, b int) bool { return net[start[a]] > net[start[b]] })
	raw, err := search.Certify(g, start)
	if err != nil {
		t.Fatal(err)
	}
	if floor.LogProb < raw.Score-1e-9 {
		t.Fatalf("floor %v scores below its unpolished start %v", floor.LogProb, raw.Score)
	}
	t.Logf("net-score order %.1f, polished floor %.1f nats", raw.Score, floor.LogProb)
}

// TestInferGolden pins the pipeline's output bit for bit: one rng feeds
// Step 2's smoothing draws first and SAPS second, and every searcher reads
// opts.Objective. A refactor of the Steps 1-3 build or the Step 4 dispatch
// must leave these rankings, log-probabilities and searcher choices
// unchanged; so must EXPERIMENTS.md's tables and every served certificate.
func TestInferGolden(t *testing.T) {
	// exact30 is the proven all-pairs optimum of the n=30 closure.
	exact30 := []int{27, 22, 29, 18, 20, 26, 9, 21, 2, 17, 12, 14, 10, 13, 6, 4, 23, 5, 1, 25, 8, 0, 28, 15, 7, 16, 11, 19, 3, 24}
	tests := []struct {
		name     string
		n        int
		opts     func(*Options)
		ranking  []int
		logBits  uint64
		searcher Searcher
	}{
		{
			name: "auto heldkarp n=12", n: 12, opts: func(*Options) {},
			ranking:  []int{8, 5, 6, 11, 1, 4, 2, 7, 0, 10, 3, 9},
			logBits:  0xc037f5c70d424f7f,
			searcher: SearcherHeldKarp,
		},
		{
			name: "saps n=30", n: 30, opts: func(o *Options) { o.Searcher = SearcherSAPS },
			ranking:  []int{27, 22, 18, 29, 26, 20, 9, 21, 17, 12, 2, 14, 10, 13, 6, 1, 23, 4, 25, 5, 8, 0, 28, 15, 7, 16, 11, 19, 3, 24},
			logBits:  0xc062d61d3067e110,
			searcher: SearcherSAPS,
		},
		{
			name: "branchbound n=30", n: 30, opts: func(o *Options) { o.Searcher = SearcherBranchBound },
			ranking:  exact30,
			logBits:  0xc062add11d92533d,
			searcher: SearcherBranchBound,
		},
		{
			name: "saps polish n=30", n: 30,
			opts: func(o *Options) {
				o.Searcher = SearcherSAPS
				o.PolishSweeps = 4
			},
			ranking:  exact30,
			logBits:  0xc062add11d92533d,
			searcher: SearcherSAPS,
		},
		{
			name: "saps consecutive n=30", n: 30,
			opts: func(o *Options) {
				o.Searcher = SearcherSAPS
				o.Objective = search.ObjectiveConsecutive
			},
			ranking:  []int{27, 6, 5, 28, 15, 23, 0, 7, 1, 26, 9, 29, 18, 21, 13, 25, 8, 2, 20, 14, 4, 16, 19, 3, 11, 22, 17, 12, 10, 24},
			logBits:  0xc02d20f75d2e5a12,
			searcher: SearcherSAPS,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			votes, _ := simulateRound(t, tc.n, 12, 6, 0.4, simulate.Gaussian, simulate.MediumQuality, 901)
			opts := DefaultOptions()
			tc.opts(&opts)
			res, err := Infer(tc.n, 12, votes, opts, newRNG(902))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Ranking, tc.ranking) {
				t.Errorf("ranking = %#v, want %#v", res.Ranking, tc.ranking)
			}
			if got := math.Float64bits(res.LogProb); got != tc.logBits {
				t.Errorf("log prob bits = %#x, want %#x", got, tc.logBits)
			}
			if res.SearcherUsed != tc.searcher {
				t.Errorf("searcher used = %v, want %v", res.SearcherUsed, tc.searcher)
			}
		})
	}
}
