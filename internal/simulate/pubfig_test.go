package simulate

import (
	"math"
	"testing"
)

func TestNewImageSet(t *testing.T) {
	rng := newRNG(10)
	set, err := NewImageSet(DefaultPubFigParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Scores) != 1800 || len(set.MachineRanking) != 1800 {
		t.Fatalf("set sizes: %d scores, %d ranking", len(set.Scores), len(set.MachineRanking))
	}
	// MachineRanking must be a permutation.
	seen := make([]bool, 1800)
	for _, id := range set.MachineRanking {
		if id < 0 || id >= 1800 || seen[id] {
			t.Fatal("machine ranking is not a permutation")
		}
		seen[id] = true
	}
	// The machine ranking must correlate strongly (but not perfectly) with
	// the latent scores.
	inversions := 0
	for k := 0; k+1 < 200; k++ {
		if set.Scores[set.MachineRanking[k]] < set.Scores[set.MachineRanking[k+1]] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("machine ranking should be noisy (no inversions found)")
	}
	if inversions > 120 {
		t.Errorf("machine ranking too noisy: %d/199 adjacent inversions", inversions)
	}
	if _, err := NewImageSet(PubFigParams{Total: 1}, rng); err == nil {
		t.Error("tiny set should fail")
	}
	if _, err := NewImageSet(PubFigParams{Total: 10, MachineNoise: -1}, rng); err == nil {
		t.Error("negative noise should fail")
	}
	if _, err := NewImageSet(DefaultPubFigParams(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestPickCloseGapConstraint(t *testing.T) {
	rng := newRNG(11)
	set, err := NewImageSet(DefaultPubFigParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	rankOf := make(map[int]int, len(set.MachineRanking))
	for r, id := range set.MachineRanking {
		rankOf[id] = r
	}
	for _, k := range []int{10, 20} {
		picks, err := set.PickClose(k, 46, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) != k {
			t.Fatalf("picked %d, want %d", len(picks), k)
		}
		for i := 1; i < len(picks); i++ {
			gap := rankOf[picks[i]] - rankOf[picks[i-1]]
			if gap < 1 || gap > 46 {
				t.Fatalf("adjacent rank gap %d outside [1,46]", gap)
			}
		}
	}
	if _, err := set.PickClose(1, 46, rng); err == nil {
		t.Error("k<2 should fail")
	}
	if _, err := set.PickClose(10, 0, rng); err == nil {
		t.Error("maxGap<1 should fail")
	}
	if _, err := set.PickClose(10, 46, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestHumanOracleCloseScoresConflict(t *testing.T) {
	rng := newRNG(12)
	set, err := NewImageSet(DefaultPubFigParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	picks, err := set.PickClose(10, 46, rng)
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := NewCrowd(50, Uniform, MediumQuality, rng)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewHumanOracle(set, picks, crowd, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Workers() != 50 {
		t.Fatal("Workers() wrong")
	}
	// Adjacent-in-machine-rank picks have close scores, so the vote split
	// should be genuinely conflicting: neither unanimous nor deterministic
	// across many workers, on average.
	splits := 0.0
	pairsTried := 0
	for o := 0; o+1 < 10; o++ {
		votesForI := 0
		const voters = 60
		for w := 0; w < 50 && w < voters; w++ {
			if oracle.Answer(w, o, o+1) {
				votesForI++
			}
		}
		frac := float64(votesForI) / 50
		splits += math.Abs(frac - 0.5)
		pairsTried++
	}
	meanDeviation := splits / float64(pairsTried)
	if meanDeviation > 0.45 {
		t.Errorf("adjacent picks produced near-unanimous votes (mean |split-0.5| = %v); want conflict", meanDeviation)
	}
	// The score ranking helper must be a permutation of the local indices.
	ranked := oracle.ScoreRanking()
	if len(ranked) != 10 {
		t.Fatal("ScoreRanking length wrong")
	}
}

func TestNewHumanOracleValidation(t *testing.T) {
	rng := newRNG(13)
	set, _ := NewImageSet(PubFigParams{Total: 20, MachineNoise: 0.1}, rng)
	crowd, _ := NewCrowdFromSigmas([]float64{0.1})
	if _, err := NewHumanOracle(nil, []int{0}, crowd, 0.5, rng); err == nil {
		t.Error("nil set should fail")
	}
	if _, err := NewHumanOracle(set, []int{0}, nil, 0.5, rng); err == nil {
		t.Error("nil crowd should fail")
	}
	if _, err := NewHumanOracle(set, []int{0}, crowd, 0, rng); err == nil {
		t.Error("zero tau should fail")
	}
	if _, err := NewHumanOracle(set, []int{0}, crowd, 0.5, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := NewHumanOracle(set, []int{99}, crowd, 0.5, rng); err == nil {
		t.Error("image id out of range should fail")
	}
}

func TestQualityStringers(t *testing.T) {
	if Gaussian.String() != "gaussian" || Uniform.String() != "uniform" {
		t.Error("distribution names wrong")
	}
	if HighQuality.String() != "high" || MediumQuality.String() != "medium" || LowQuality.String() != "low" {
		t.Error("level names wrong")
	}
	if QualityDistribution(9).String() == "" || QualityLevel(9).String() == "" {
		t.Error("unknown values should still print")
	}
}
