package smooth

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/truth"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }

func buildGraph(t *testing.T, n int, edges map[[2]int]float64) *graph.PreferenceGraph {
	t.Helper()
	g, err := graph.NewPreferenceGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for e, w := range edges {
		if err := g.SetWeight(e[0], e[1], w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// voteIndex indexes one vote per listed worker on each pair, over n
// objects and m workers.
func voteIndex(t *testing.T, n, m int, voters map[graph.Pair][]int) *truth.Index {
	t.Helper()
	idx, err := truth.NewIndex(n, m)
	if err != nil {
		t.Fatal(err)
	}
	for pr, workers := range voters {
		for _, w := range workers {
			if err := idx.Add([]crowd.Vote{{Worker: w, I: pr.I, J: pr.J, PrefersI: true}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return idx
}

func TestSmoothValidation(t *testing.T) {
	g := buildGraph(t, 2, map[[2]int]float64{{0, 1}: 1})
	q := []float64{0.9}
	idx := voteIndex(t, 2, 1, nil)
	if _, err := Smooth(nil, q, idx, newRNG(1), DefaultParams()); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := Smooth(g, q, nil, newRNG(1), DefaultParams()); err == nil {
		t.Error("nil vote index should fail")
	}
	if _, err := Smooth(g, q, idx, nil, DefaultParams()); err == nil {
		t.Error("nil rng should fail")
	}
	bad := DefaultParams()
	bad.MinDelta = 0
	if _, err := Smooth(g, q, idx, newRNG(1), bad); err == nil {
		t.Error("MinDelta=0 should fail")
	}
	bad = DefaultParams()
	bad.MaxDelta = 0.6
	if _, err := Smooth(g, q, idx, newRNG(1), bad); err == nil {
		t.Error("MaxDelta >= 0.5 should fail")
	}
	bad = DefaultParams()
	bad.MaxDelta = bad.MinDelta / 2
	if _, err := Smooth(g, q, idx, newRNG(1), bad); err == nil {
		t.Error("MaxDelta < MinDelta should fail")
	}
}

func TestSmoothRelaxesOneEdges(t *testing.T) {
	// A unanimous chain 0 -> 1 -> 2 plus one conflicted pair (0,2).
	g := buildGraph(t, 3, map[[2]int]float64{
		{0, 1}: 1,
		{1, 2}: 1,
		{0, 2}: 0.8,
		{2, 0}: 0.2,
	})
	workers := voteIndex(t, 3, 2, map[graph.Pair][]int{
		{I: 0, J: 1}: {0, 1},
		{I: 1, J: 2}: {0, 1},
		{I: 0, J: 2}: {0, 1},
	})
	quality := []float64{0.95, 0.9}
	stats, err := Smooth(g, quality, workers, newRNG(7), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if stats.OneEdges != 2 || stats.Smoothed != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MeanDelta <= 0 || stats.MeanDelta >= 0.5 {
		t.Errorf("MeanDelta = %v", stats.MeanDelta)
	}
	if len(g.OneEdges()) != 0 {
		t.Error("no 1-edges should remain")
	}
	// Each former 1-edge must keep its majority direction and gain a
	// positive reverse edge summing to 1.
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		fwd, rev := g.Weight(e[0], e[1]), g.Weight(e[1], e[0])
		if fwd <= 0.5 || rev <= 0 || fwd+rev != 1 {
			t.Errorf("edge %v: fwd=%v rev=%v", e, fwd, rev)
		}
	}
	// The conflicted pair must be untouched.
	if g.Weight(0, 2) != 0.8 || g.Weight(2, 0) != 0.2 {
		t.Error("non-1-edges must not be smoothed")
	}
}

func TestSmoothMakesStronglyConnected(t *testing.T) {
	// A unanimous directed path is not strongly connected; after smoothing
	// it must be (the Theorem 5.1 prerequisite).
	n := 8
	g, err := graph.NewPreferenceGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	voters := make(map[graph.Pair][]int)
	for i := 0; i+1 < n; i++ {
		if err := g.SetWeight(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
		voters[graph.Pair{I: i, J: i + 1}] = []int{0, 1, 2}
	}
	workers := voteIndex(t, n, 3, voters)
	if g.StronglyConnected() {
		t.Fatal("precondition: one-way chain should not be strongly connected")
	}
	quality := []float64{0.9, 0.8, 0.99}
	if _, err := Smooth(g, quality, workers, newRNG(3), DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if !g.StronglyConnected() {
		t.Error("smoothed unanimous chain must be strongly connected")
	}
}

func TestSmoothHighQualityWorkersSmallDelta(t *testing.T) {
	// Perfect workers (q=1) have sigma = 0, so the delta clamps at MinDelta.
	g := buildGraph(t, 2, map[[2]int]float64{{0, 1}: 1})
	workers := voteIndex(t, 2, 3, map[graph.Pair][]int{{I: 0, J: 1}: {0, 1, 2}})
	quality := []float64{1, 1, 1}
	p := DefaultParams()
	stats, err := Smooth(g, quality, workers, newRNG(5), p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MeanDelta != p.MinDelta {
		t.Errorf("perfect workers: delta = %v, want MinDelta %v", stats.MeanDelta, p.MinDelta)
	}
	if g.Weight(0, 1) != 1-p.MinDelta {
		t.Errorf("weight = %v", g.Weight(0, 1))
	}
}

func TestSmoothLowQualityWorkersLargerDelta(t *testing.T) {
	// Statistically, lower quality -> larger average adjustment.
	mean := func(q float64) float64 {
		total := 0.0
		const trials = 200
		for s := 0; s < trials; s++ {
			g := buildGraph(t, 2, map[[2]int]float64{{0, 1}: 1})
			workers := voteIndex(t, 2, 1, map[graph.Pair][]int{{I: 0, J: 1}: {0}})
			stats, err := Smooth(g, []float64{q}, workers, newRNG(uint64(s)), DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			total += stats.MeanDelta
		}
		return total / trials
	}
	if hi, lo := mean(0.99), mean(0.5); hi >= lo {
		t.Errorf("delta(q=0.99)=%v should be below delta(q=0.5)=%v", hi, lo)
	}
}

func TestSmoothNoWorkersFallsBackToMinDelta(t *testing.T) {
	g := buildGraph(t, 2, map[[2]int]float64{{0, 1}: 1})
	p := DefaultParams()
	if _, err := Smooth(g, nil, voteIndex(t, 2, 1, nil), newRNG(2), p); err != nil {
		t.Fatal(err)
	}
	if g.Weight(1, 0) != p.MinDelta {
		t.Errorf("fallback delta = %v", g.Weight(1, 0))
	}
}

func TestSmoothBadQuality(t *testing.T) {
	g := buildGraph(t, 2, map[[2]int]float64{{0, 1}: 1})
	workers := voteIndex(t, 2, 1, map[graph.Pair][]int{{I: 0, J: 1}: {0}})
	if _, err := Smooth(g, []float64{0}, workers, newRNG(1), DefaultParams()); err == nil {
		t.Error("quality 0 should fail")
	}
	if _, err := Smooth(g, []float64{1.5}, workers, newRNG(1), DefaultParams()); err == nil {
		t.Error("quality > 1 should fail")
	}
	outside := voteIndex(t, 2, 8, map[graph.Pair][]int{{I: 0, J: 1}: {7}})
	if _, err := Smooth(g, []float64{0.5}, outside, newRNG(1), DefaultParams()); err == nil {
		t.Error("worker outside quality table should fail")
	}
}

func TestSmoothWeightsStayValidQuick(t *testing.T) {
	// Property: for random unanimous graphs and qualities, all smoothed
	// weights lie in (0,1), pairs sum to 1, and the majority direction is
	// preserved.
	f := func(seed uint64, nRaw uint8) bool {
		rng := newRNG(seed)
		n := int(nRaw%10) + 2
		g, err := graph.NewPreferenceGraph(n)
		if err != nil {
			return false
		}
		voters := make(map[graph.Pair][]int)
		quality := []float64{0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64()}
		for i := 0; i+1 < n; i++ {
			if err := g.SetWeight(i, i+1, 1); err != nil {
				return false
			}
			voters[graph.Pair{I: i, J: i + 1}] = []int{0, 1}
		}
		if _, err := Smooth(g, quality, voteIndex(t, n, 2, voters), rng, DefaultParams()); err != nil {
			return false
		}
		for i := 0; i+1 < n; i++ {
			fwd, rev := g.Weight(i, i+1), g.Weight(i+1, i)
			if fwd <= 0.5 || fwd >= 1 || rev <= 0 || rev >= 0.5 || fwd+rev != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
