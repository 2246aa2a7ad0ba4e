package simulate

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"crowdrank/internal/stat"
)

// ImageSet is the synthetic stand-in for the paper's Public Figures Face
// Database study: Total images with a latent "smile" score each, plus the
// ranking produced by a simulated machine image-ranking algorithm (a noisy
// observer of the latent scores, mirroring the relative-attributes ranker
// the paper used for pre-selection). The latent scores are never exposed to
// inference — like the paper, the AMT experiment has no ground truth and is
// evaluated by the agreement between TAPS and SAPS.
type ImageSet struct {
	// Scores holds the latent smile scores, indexed by image id.
	Scores []float64
	// MachineRanking is the pre-selection ranking (best-first image ids)
	// produced by the simulated image-ranking algorithm.
	MachineRanking []int
}

// PubFigParams configures the synthetic image collection.
type PubFigParams struct {
	// Total is the collection size; the paper uses 1800 images.
	Total int
	// MachineNoise is the standard deviation of the machine ranker's
	// observation noise relative to unit-variance scores.
	MachineNoise float64
}

// DefaultPubFigParams mirrors the paper's collection.
func DefaultPubFigParams() PubFigParams {
	return PubFigParams{Total: 1800, MachineNoise: 0.25}
}

// NewImageSet generates the synthetic collection.
func NewImageSet(p PubFigParams, rng *rand.Rand) (*ImageSet, error) {
	if p.Total < 2 {
		return nil, fmt.Errorf("simulate: image set needs at least two images, got %d", p.Total)
	}
	if p.MachineNoise < 0 {
		return nil, fmt.Errorf("simulate: negative machine noise %v", p.MachineNoise)
	}
	if rng == nil {
		return nil, fmt.Errorf("simulate: nil random source")
	}
	scores := make([]float64, p.Total)
	observed := make([]float64, p.Total)
	for i := range scores {
		scores[i] = rng.NormFloat64()
		observed[i] = scores[i] + rng.NormFloat64()*p.MachineNoise
	}
	ranking := make([]int, p.Total)
	for i := range ranking {
		ranking[i] = i
	}
	sort.SliceStable(ranking, func(a, b int) bool { return observed[ranking[a]] > observed[ranking[b]] })
	return &ImageSet{Scores: scores, MachineRanking: ranking}, nil
}

// PickClose selects k images whose machine ranks are close together: the
// rank difference between consecutively picked images never exceeds maxGap
// (the paper uses 46), so every selected pair has genuinely conflicting
// opinions. It returns the selected image ids in machine-rank order.
func (s *ImageSet) PickClose(k, maxGap int, rng *rand.Rand) ([]int, error) {
	n := len(s.MachineRanking)
	if k < 2 || k > n {
		return nil, fmt.Errorf("simulate: cannot pick %d images from %d", k, n)
	}
	if maxGap < 1 {
		return nil, fmt.Errorf("simulate: maxGap must be >= 1, got %d", maxGap)
	}
	if rng == nil {
		return nil, fmt.Errorf("simulate: nil random source")
	}
	// Choose a random feasible anchor, then walk forward with random gaps
	// in [1, maxGap], clamping so k picks always fit.
	maxSpan := (k - 1) * maxGap
	if maxSpan > n-1 {
		maxSpan = n - 1
	}
	anchor := rng.IntN(n - maxSpan)
	picks := make([]int, 0, k)
	rank := anchor
	picks = append(picks, s.MachineRanking[rank])
	for len(picks) < k {
		remaining := k - len(picks)
		// Largest gap that still leaves room for the remaining picks.
		roomPerPick := (n - 1 - rank) / remaining
		gapCap := maxGap
		if roomPerPick < gapCap {
			gapCap = roomPerPick
		}
		if gapCap < 1 {
			return nil, fmt.Errorf("simulate: ran out of rank room picking %d of %d images", len(picks)+1, k)
		}
		rank += 1 + rng.IntN(gapCap)
		picks = append(picks, s.MachineRanking[rank])
	}
	return picks, nil
}

// HumanOracle simulates AMT workers judging smile intensity with a
// Thurstone comparison model: the probability of voting image i over image
// j is Phi((s_i - s_j) / tau_k), where tau_k grows with the worker's error
// deviation. Close scores therefore yield near-coin-flip votes — exactly
// the conflicting-opinion regime the paper's AMT study targets.
type HumanOracle struct {
	crowd *Crowd
	// scores are indexed by *local* object index (position in the selected
	// image list), not by image id.
	scores []float64
	// BaseTau sets the discrimination scale for a perfect worker.
	baseTau float64
	rng     *rand.Rand
}

// NewHumanOracle binds a crowd to the latent scores of the selected images.
// images are image ids into set; object index o corresponds to images[o].
func NewHumanOracle(set *ImageSet, images []int, c *Crowd, baseTau float64, rng *rand.Rand) (*HumanOracle, error) {
	if set == nil {
		return nil, fmt.Errorf("simulate: nil image set")
	}
	if c == nil {
		return nil, fmt.Errorf("simulate: nil crowd")
	}
	if baseTau <= 0 {
		return nil, fmt.Errorf("simulate: baseTau must be positive, got %v", baseTau)
	}
	if rng == nil {
		return nil, fmt.Errorf("simulate: nil random source")
	}
	scores := make([]float64, len(images))
	for o, id := range images {
		if id < 0 || id >= len(set.Scores) {
			return nil, fmt.Errorf("simulate: image id %d outside collection of %d", id, len(set.Scores))
		}
		scores[o] = set.Scores[id]
	}
	return &HumanOracle{crowd: c, scores: scores, baseTau: baseTau, rng: rng}, nil
}

// Answer reports worker k's vote on whether object i smiles more than
// object j (local indices).
func (o *HumanOracle) Answer(worker, i, j int) bool {
	tau := o.baseTau * (1 + o.crowd.Sigma(worker))
	p := stat.NormalCDF((o.scores[i] - o.scores[j]) / tau)
	return o.rng.Float64() < p
}

// Workers returns the size of the underlying crowd.
func (o *HumanOracle) Workers() int { return o.crowd.Size() }

// ScoreRanking returns the selected images' local indices ordered by latent
// score (best-first) — available to tests only; the experiments never use
// it, mirroring the paper's "no ground truth" setting.
func (o *HumanOracle) ScoreRanking() []int {
	idx := make([]int, len(o.scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return o.scores[idx[a]] > o.scores[idx[b]] })
	return idx
}
