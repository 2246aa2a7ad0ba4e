package mv

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"crowdrank/internal/crowd"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 21)) }

func vote(w, i, j int, prefersI bool) crowd.Vote {
	return crowd.Vote{Worker: w, I: i, J: j, PrefersI: prefersI}
}

// fullVotes generates votes on every pair of n objects from m workers who
// follow the identity order with the given per-vote error rate.
func fullVotes(n, m int, errRate float64, rng *rand.Rand) []crowd.Vote {
	var votes []crowd.Vote
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for w := 0; w < m; w++ {
				correct := rng.Float64() >= errRate
				votes = append(votes, vote(w, i, j, correct))
			}
		}
	}
	return votes
}

func TestNewPairwiseMajorityValidation(t *testing.T) {
	if _, err := NewPairwiseMajority(1, []crowd.Vote{vote(0, 0, 1, true)}); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := NewPairwiseMajority(3, nil); err == nil {
		t.Error("no votes should fail")
	}
	if _, err := NewPairwiseMajority(3, []crowd.Vote{vote(0, 0, 0, true)}); err == nil {
		t.Error("self pair should fail")
	}
	if _, err := NewPairwiseMajority(3, []crowd.Vote{vote(0, 0, 5, true)}); err == nil {
		t.Error("out-of-range pair should fail")
	}
}

func TestPreferenceOrientation(t *testing.T) {
	votes := []crowd.Vote{
		vote(0, 0, 1, true), vote(1, 0, 1, true), vote(2, 0, 1, false),
	}
	pm, err := NewPairwiseMajority(2, votes)
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok := pm.Preference(0, 1)
	if !ok || math.Abs(fwd-2.0/3) > 1e-12 {
		t.Errorf("Preference(0,1) = %v, %v", fwd, ok)
	}
	rev, ok := pm.Preference(1, 0)
	if !ok || math.Abs(rev-1.0/3) > 1e-12 {
		t.Errorf("Preference(1,0) = %v, %v", rev, ok)
	}
	if _, ok := pm.Preference(0, 1); !ok || pm.N() != 2 {
		t.Error("metadata wrong")
	}
}

func TestCopelandRecoversCleanOrder(t *testing.T) {
	rng := newRNG(1)
	votes := fullVotes(10, 5, 0, rng)
	pm, err := NewPairwiseMajority(10, votes)
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := pm.CopelandRanking(newRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ranking {
		if v != i {
			t.Fatalf("Copeland ranking %v should be the identity", ranking)
		}
	}
}

// TestBordaDeterministic: the same votes and seed give the same Borda
// ranking on every run, although the per-pair preferences live in a map.
func TestBordaDeterministic(t *testing.T) {
	votes := fullVotes(30, 7, 0.3, newRNG(5))
	var first []int
	for run := 0; run < 50; run++ {
		pm, err := NewPairwiseMajority(30, votes)
		if err != nil {
			t.Fatal(err)
		}
		ranking, err := pm.BordaRanking(newRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = ranking
		} else if !slices.Equal(ranking, first) {
			t.Fatalf("run %d ranked %v, run 0 %v", run, ranking, first)
		}
	}
}

func TestBordaRecoversNoisyOrder(t *testing.T) {
	rng := newRNG(3)
	votes := fullVotes(12, 9, 0.15, rng)
	pm, err := NewPairwiseMajority(12, votes)
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := pm.BordaRanking(newRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	// Count pairwise agreements with the identity order.
	agree := 0
	pos := make([]int, 12)
	for r, o := range ranking {
		pos[o] = r
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if pos[i] < pos[j] {
				agree++
			}
		}
	}
	if frac := float64(agree) / 66; frac < 0.9 {
		t.Errorf("Borda agreement with truth = %v, want >= 0.9", frac)
	}
	if _, err := pm.BordaRanking(nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := pm.CopelandRanking(nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestRankingsArePermutations(t *testing.T) {
	rng := newRNG(5)
	votes := fullVotes(8, 3, 0.4, rng)
	pm, err := NewPairwiseMajority(8, votes)
	if err != nil {
		t.Fatal(err)
	}
	for name, rank := range map[string]func(*rand.Rand) ([]int, error){
		"copeland": pm.CopelandRanking,
		"borda":    pm.BordaRanking,
	} {
		r, err := rank(newRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, 8)
		for _, v := range r {
			if v < 0 || v >= 8 || seen[v] {
				t.Fatalf("%s ranking not a permutation: %v", name, r)
			}
			seen[v] = true
		}
	}
}
