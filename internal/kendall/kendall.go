// Package kendall implements the ranking-quality metrics of Section VI-A5:
// the Kendall tau distance (both the naive O(n^2) definition and Knight's
// O(n log n) merge-count algorithm), the derived accuracy 1 - d used
// throughout the paper's evaluation, Spearman's rho for cross-checking,
// and the top-k overlap.
//
// A ranking is a permutation pi of {0, ..., n-1} listed best-first:
// pi[0] is the most-preferred object.
package kendall

import "fmt"

// ValidatePermutation returns an error unless pi is a permutation of
// {0, ..., len(pi)-1}.
func ValidatePermutation(pi []int) error {
	seen := make([]bool, len(pi))
	for idx, v := range pi {
		if v < 0 || v >= len(pi) {
			return fmt.Errorf("kendall: position %d holds %d, outside [0,%d)", idx, v, len(pi))
		}
		if seen[v] {
			return fmt.Errorf("kendall: object %d appears more than once", v)
		}
		seen[v] = true
	}
	return nil
}

// positions inverts a permutation: positions(pi)[object] = rank of object.
func positions(pi []int) []int {
	pos := make([]int, len(pi))
	for rank, obj := range pi {
		pos[obj] = rank
	}
	return pos
}

// DistanceNaive returns the normalized Kendall tau distance between rankings
// a and b by direct O(n^2) pair counting: the fraction of the C(n,2) object
// pairs on which the two rankings disagree. It is the reference
// implementation used to validate Distance.
func DistanceNaive(a, b []int) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	n := len(a)
	if n < 2 {
		return 0, nil
	}
	posA, posB := positions(a), positions(b)
	discordant := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			orderA := posA[i] < posA[j]
			orderB := posB[i] < posB[j]
			if orderA != orderB {
				discordant++
			}
		}
	}
	return float64(discordant) / float64(n*(n-1)/2), nil
}

// Distance returns the normalized Kendall tau distance between rankings a
// and b in O(n log n) using Knight's method: relabel b's objects by their
// rank in a, then count inversions of the resulting sequence with a
// merge sort.
func Distance(a, b []int) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	n := len(a)
	if n < 2 {
		return 0, nil
	}
	posA := positions(a)
	seq := make([]int, n)
	for rank, obj := range b {
		seq[rank] = posA[obj]
	}
	inv := countInversions(seq)
	return float64(inv) / float64(n*(n-1)/2), nil
}

// Accuracy returns 1 - Distance(a, b), the paper's reported accuracy.
func Accuracy(a, b []int) (float64, error) {
	d, err := Distance(a, b)
	if err != nil {
		return 0, err
	}
	return 1 - d, nil
}

// Tau returns the Kendall tau rank correlation coefficient in [-1, 1]:
// tau = 1 - 2*Distance. Identical rankings give +1, reversed give -1.
func Tau(a, b []int) (float64, error) {
	d, err := Distance(a, b)
	if err != nil {
		return 0, err
	}
	return 1 - 2*d, nil
}

func checkPair(a, b []int) error {
	if len(a) != len(b) {
		return fmt.Errorf("kendall: length mismatch %d vs %d", len(a), len(b))
	}
	if err := ValidatePermutation(a); err != nil {
		return fmt.Errorf("kendall: first ranking invalid: %w", err)
	}
	if err := ValidatePermutation(b); err != nil {
		return fmt.Errorf("kendall: second ranking invalid: %w", err)
	}
	return nil
}

// countInversions counts pairs (i, j), i < j, with seq[i] > seq[j] using an
// iterative bottom-up merge sort. seq is mutated.
func countInversions(seq []int) int64 {
	n := len(seq)
	buf := make([]int, n)
	var inversions int64
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			inversions += mergeCount(seq, buf, lo, mid, hi)
		}
	}
	return inversions
}

// mergeCount merges seq[lo:mid] and seq[mid:hi] (each sorted) into sorted
// order, returning the number of inversions across the boundary.
func mergeCount(seq, buf []int, lo, mid, hi int) int64 {
	copy(buf[lo:hi], seq[lo:hi])
	var inversions int64
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		switch {
		case i >= mid:
			seq[k] = buf[j]
			j++
		case j >= hi:
			seq[k] = buf[i]
			i++
		case buf[i] <= buf[j]:
			seq[k] = buf[i]
			i++
		default:
			seq[k] = buf[j]
			j++
			inversions += int64(mid - i)
		}
	}
	return inversions
}

// SpearmanRho returns Spearman's rank correlation coefficient in [-1, 1].
func SpearmanRho(a, b []int) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	n := len(a)
	if n < 2 {
		return 1, nil
	}
	posA, posB := positions(a), positions(b)
	var sumSq float64
	for obj := 0; obj < n; obj++ {
		d := float64(posA[obj] - posB[obj])
		sumSq += d * d
	}
	nf := float64(n)
	return 1 - 6*sumSq/(nf*(nf*nf-1)), nil
}

// TopKOverlap returns |top-k(a) ∩ top-k(b)| / k, a top-k quality measure for
// the paper's future-work extension to top-k ranking.
func TopKOverlap(a, b []int, k int) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	if k <= 0 || k > len(a) {
		return 0, fmt.Errorf("kendall: k=%d outside [1,%d]", k, len(a))
	}
	inA := make(map[int]bool, k)
	for _, obj := range a[:k] {
		inA[obj] = true
	}
	overlap := 0
	for _, obj := range b[:k] {
		if inA[obj] {
			overlap++
		}
	}
	return float64(overlap) / float64(k), nil
}
