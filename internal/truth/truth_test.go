package truth

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"crowdrank/internal/crowd"
)

func vote(w, i, j int, prefersI bool) crowd.Vote {
	return crowd.Vote{Worker: w, I: i, J: j, PrefersI: prefersI}
}

// discover indexes votes over n objects and m workers and runs Discover.
func discover(n, m int, votes []crowd.Vote, p Params) (*Result, *Index, error) {
	idx, err := NewIndex(n, m)
	if err != nil {
		return nil, nil, err
	}
	if err := idx.Add(votes); err != nil {
		return nil, nil, err
	}
	res, err := Discover(idx, p)
	return res, idx, err
}

func TestDiscoverValidation(t *testing.T) {
	p := DefaultParams()
	if _, _, err := discover(1, 1, []crowd.Vote{vote(0, 0, 1, true)}, p); err == nil {
		t.Error("n=1 should fail")
	}
	if _, _, err := discover(3, 0, []crowd.Vote{vote(0, 0, 1, true)}, p); err == nil {
		t.Error("m=0 should fail")
	}
	if _, _, err := discover(3, 1, nil, p); err == nil {
		t.Error("no votes should fail")
	}
	if _, _, err := discover(3, 1, []crowd.Vote{vote(2, 0, 1, true)}, p); err == nil {
		t.Error("invalid worker should fail")
	}
	bad := p
	bad.Alpha = 0
	if _, _, err := discover(3, 1, []crowd.Vote{vote(0, 0, 1, true)}, bad); err == nil {
		t.Error("alpha=0 should fail")
	}
	bad = p
	bad.MaxIterations = 0
	if _, _, err := discover(3, 1, []crowd.Vote{vote(0, 0, 1, true)}, bad); err == nil {
		t.Error("MaxIterations=0 should fail")
	}
	bad = p
	bad.QualityFloor = 0
	if _, _, err := discover(3, 1, []crowd.Vote{vote(0, 0, 1, true)}, bad); err == nil {
		t.Error("QualityFloor=0 should fail")
	}
	bad = p
	bad.Tolerance = -1
	if _, _, err := discover(3, 1, []crowd.Vote{vote(0, 0, 1, true)}, bad); err == nil {
		t.Error("negative tolerance should fail")
	}
}

func TestDiscoverUnanimous(t *testing.T) {
	votes := []crowd.Vote{
		vote(0, 0, 1, true), vote(1, 0, 1, true), vote(2, 0, 1, true),
		vote(0, 1, 2, true), vote(1, 1, 2, true), vote(2, 1, 2, true),
	}
	res, idx, err := discover(3, 3, votes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for id, x := range res.Preference {
		if pr := idx.Pair(id); x != 1 {
			t.Errorf("unanimous pair %v has preference %v, want 1", pr, x)
		}
	}
	if !res.Converged {
		t.Error("unanimous votes should converge")
	}
	for w := 0; w < 3; w++ {
		if res.Quality[w] < 0.99 {
			t.Errorf("unanimous worker %d quality = %v", w, res.Quality[w])
		}
		if res.TaskCounts[w] != 2 {
			t.Errorf("task count[%d] = %d", w, res.TaskCounts[w])
		}
	}
}

func TestDiscoverIdentifiesBadWorker(t *testing.T) {
	// Workers 0-3 agree on every pair; worker 4 always dissents. The
	// dissenter must get a lower quality and a lower CRH weight.
	var votes []crowd.Vote
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}, {0, 3}}
	for _, pr := range pairs {
		for w := 0; w < 4; w++ {
			votes = append(votes, vote(w, pr[0], pr[1], true))
		}
		votes = append(votes, vote(4, pr[0], pr[1], false))
	}
	res, idx, err := discover(4, 5, votes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if res.Quality[4] >= res.Quality[w] {
			t.Errorf("dissenter quality %v not below worker %d quality %v",
				res.Quality[4], w, res.Quality[w])
		}
		if res.Weight[4] >= res.Weight[w] {
			t.Errorf("dissenter weight %v not below worker %d weight %v",
				res.Weight[4], w, res.Weight[w])
		}
	}
	// Majority truth must prevail decisively on every pair.
	for id, x := range res.Preference {
		if x < 0.8 {
			t.Errorf("pair %v preference %v should be near 1", idx.Pair(id), x)
		}
	}
}

func TestDiscoverInactiveWorker(t *testing.T) {
	votes := []crowd.Vote{vote(0, 0, 1, true), vote(1, 0, 1, true)}
	res, _, err := discover(2, 3, votes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality[2] != 0 || res.Weight[2] != 0 || res.TaskCounts[2] != 0 {
		t.Errorf("inactive worker should have zero quality/weight: q=%v w=%v",
			res.Quality[2], res.Weight[2])
	}
}

func TestDiscoverSplitVote(t *testing.T) {
	// Two equally active workers disagree on a single pair: the estimate
	// must remain at maximal uncertainty.
	votes := []crowd.Vote{vote(0, 0, 1, true), vote(1, 0, 1, false)}
	res, idx, err := discover(2, 2, votes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := idx.PairID(0, 1)
	x := res.Preference[id]
	if math.Abs(x-0.5) > 1e-9 {
		t.Errorf("split vote preference = %v, want 0.5", x)
	}
	if math.Abs(res.Quality[0]-res.Quality[1]) > 1e-9 {
		t.Errorf("symmetric workers should have equal quality: %v vs %v",
			res.Quality[0], res.Quality[1])
	}
}

func TestDiscoverConvergesWithinTen(t *testing.T) {
	// The paper reports convergence within ~10 iterations for most cases.
	rng := rand.New(rand.NewPCG(5, 6))
	n, m := 20, 10
	var votes []crowd.Vote
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for w := 0; w < m; w++ {
				correct := rng.Float64() > 0.1 // 10% error rate
				votes = append(votes, vote(w, i, j, correct))
			}
		}
	}
	p := DefaultParams()
	p.MaxIterations = 50
	res, _, err := discover(n, m, votes, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("should converge")
	}
	if res.Iterations > 25 {
		t.Errorf("took %d iterations, expected quick convergence", res.Iterations)
	}
}

func TestDiscoverWorkerPermutationEquivariant(t *testing.T) {
	// Relabeling workers must permute qualities identically.
	votes := []crowd.Vote{
		vote(0, 0, 1, true), vote(1, 0, 1, true), vote(2, 0, 1, false),
		vote(0, 1, 2, true), vote(1, 1, 2, false), vote(2, 1, 2, true),
	}
	res1, _, err := discover(3, 3, votes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Swap workers 0 and 2.
	swapped := make([]crowd.Vote, len(votes))
	for i, v := range votes {
		sw := v
		switch v.Worker {
		case 0:
			sw.Worker = 2
		case 2:
			sw.Worker = 0
		}
		swapped[i] = sw
	}
	res2, idx, err := discover(3, 3, swapped, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.Quality[0]-res2.Quality[2]) > 1e-12 ||
		math.Abs(res1.Quality[2]-res2.Quality[0]) > 1e-12 {
		t.Errorf("quality not equivariant: %v vs %v", res1.Quality, res2.Quality)
	}
	// Relabeling workers keeps the vote order, so pair ids agree.
	for id, x := range res1.Preference {
		if math.Abs(res2.Preference[id]-x) > 1e-12 {
			t.Errorf("preference changed under worker relabeling at %v", idx.Pair(id))
		}
	}
}

func TestDiscoverRangesQuick(t *testing.T) {
	// Properties on random inputs: preferences and qualities stay in [0,1],
	// weights are normalized to max 1.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 3 + rng.IntN(8)
		m := 2 + rng.IntN(6)
		var votes []crowd.Vote
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					continue // leave some pairs uncompared
				}
				for w := 0; w < m; w++ {
					if rng.Float64() < 0.7 {
						votes = append(votes, vote(w, i, j, rng.Float64() < 0.8))
					}
				}
			}
		}
		if len(votes) == 0 {
			return true
		}
		res, _, err := discover(n, m, votes, DefaultParams())
		if err != nil {
			return false
		}
		maxWeight := 0.0
		for w := 0; w < m; w++ {
			if res.Quality[w] < 0 || res.Quality[w] > 1 {
				return false
			}
			if res.Weight[w] > maxWeight {
				maxWeight = res.Weight[w]
			}
		}
		if math.Abs(maxWeight-1) > 1e-9 {
			return false
		}
		for _, x := range res.Preference {
			if x < 0 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuildPreferenceGraph(t *testing.T) {
	idx, err := NewIndex(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pair ids follow first-seen order, not (I, J) order.
	if err := idx.Add([]crowd.Vote{vote(0, 2, 1, true), vote(0, 0, 1, true), vote(0, 2, 0, true)}); err != nil {
		t.Fatal(err)
	}
	pref := []float64{
		0.3, // (1,2): both directions
		1,   // (0,1): 1-edge, only forward direction exists
		0,   // (0,2): only reverse direction exists
	}
	g, err := BuildPreferenceGraph(idx, pref)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 1 || g.HasEdge(1, 0) {
		t.Error("1-edge should be one-directional")
	}
	if g.Weight(1, 2) != 0.3 || math.Abs(g.Weight(2, 1)-0.7) > 1e-12 {
		t.Error("conflicting pair should have both directions")
	}
	if g.HasEdge(0, 2) || g.Weight(2, 0) != 1 {
		t.Error("zero preference should produce only the reverse edge")
	}
	// Adjacency lists come out ascending whatever the pair ids.
	for v, want := range [][]int{{1}, {2}, {0, 1}} {
		if got := g.Out(v); !slices.Equal(got, want) {
			t.Errorf("Out(%d) = %v, want %v", v, got, want)
		}
	}
	if _, err := BuildPreferenceGraph(idx, []float64{0.3, 1.5, 0}); err == nil {
		t.Error("out-of-range preference should fail")
	}
	if _, err := BuildPreferenceGraph(idx, []float64{0.3}); err == nil {
		t.Error("a preference count that is not the pair count should fail")
	}
}

func TestSuspectWorkers(t *testing.T) {
	// Workers 0-2 agree, worker 3 dissents on every pair, worker 4 is idle.
	var votes []crowd.Vote
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}, {0, 3}}
	for _, pr := range pairs {
		for w := 0; w < 3; w++ {
			votes = append(votes, vote(w, pr[0], pr[1], true))
		}
		votes = append(votes, vote(3, pr[0], pr[1], false))
	}
	res, _, err := discover(4, 5, votes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	suspects := res.SuspectWorkers(0.75)
	if len(suspects) != 1 || suspects[0] != 3 {
		t.Errorf("suspects = %v, want [3]", suspects)
	}
	// Idle worker 4 must not be flagged despite quality 0.
	for _, s := range suspects {
		if s == 4 {
			t.Error("idle worker flagged")
		}
	}
	// A permissive threshold flags nobody.
	if got := res.SuspectWorkers(0.0001); len(got) != 0 {
		t.Errorf("threshold 0.0001 flagged %v", got)
	}
}
