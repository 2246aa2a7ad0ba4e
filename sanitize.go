package crowdrank

import (
	"fmt"
	"sort"

	"crowdrank/internal/crowd"
)

// VoteError is the typed error returned by strict vote validation: it names
// the first offending vote by its index in the input slice and explains
// what is wrong with it.
type VoteError struct {
	// Index is the position of the offending vote in the input slice.
	Index int
	// Vote is the offending vote itself.
	Vote Vote
	// Reason describes the violation.
	Reason string
}

// Error renders the offense with enough context to find it in the input.
func (e *VoteError) Error() string {
	return fmt.Sprintf("crowdrank: vote %d (worker %d, pair %d vs %d): %s",
		e.Index, e.Vote.Worker, e.Vote.I, e.Vote.J, e.Reason)
}

// SanitizeReport summarizes what lenient sanitization dropped: Input and
// Kept, and the drops by cause (OutOfRangePairs, SelfPairs,
// InvalidWorkers, Duplicates). A zero Dropped() means the input was
// already clean.
type SanitizeReport = crowd.CleanReport

// checkVote returns why one vote is invalid against the object universe
// [0, n) and the worker universe [0, m), or "" for a valid vote.
func checkVote(v Vote, n, m int) string {
	switch crowd.Classify(v, n, m) {
	case crowd.ObjectOutOfRange:
		return fmt.Sprintf("object id outside [0,%d)", n)
	case crowd.SelfPair:
		return "object compared with itself"
	case crowd.WorkerOutOfRange:
		return fmt.Sprintf("worker id outside [0,%d)", m)
	}
	return ""
}

// ValidateVotes checks every vote against n objects and m workers and
// returns a *VoteError naming the first offense: an out-of-range object id,
// a self-pair i==j, an out-of-range worker id, or an exact duplicate
// submission (same worker, same pair, same answer). Conflicting repeat
// answers by the same worker are legal — they are genuine observations for
// truth discovery. This is the strict counterpart of SanitizeVotes; Infer
// applies it under WithStrictVotes.
func ValidateVotes(n, m int, votes []Vote) error {
	seen := make(map[crowd.Submission]int, len(votes))
	for i, v := range votes {
		if reason := checkVote(v, n, m); reason != "" {
			return &VoteError{Index: i, Vote: v, Reason: reason}
		}
		key := v.Submission()
		if first, dup := seen[key]; dup {
			return &VoteError{Index: i, Vote: v,
				Reason: fmt.Sprintf("duplicate of vote %d (same worker, pair, and answer)", first)}
		}
		seen[key] = i
	}
	return nil
}

// SanitizeVotes drops every vote ValidateVotes would reject — out-of-range
// object ids, self-pairs, out-of-range worker ids, and exact duplicate
// submissions — and reports what was removed. The input is not modified;
// conflicting repeat answers by the same worker are kept. This is the
// lenient mode Infer applies by default, recording the report in
// Result.Sanitization.
func SanitizeVotes(n, m int, votes []Vote) ([]Vote, SanitizeReport) {
	return crowd.Clean(votes, n, m)
}

// CoverageReport describes how well the delivered votes cover the object
// universe — the degradation-aware companion to a ranking inferred from
// incomplete data. Objects without direct evidence are placed by the
// uninformed 0.5 prior alone, so their positions carry no signal.
type CoverageReport struct {
	// ObjectVotes[i] counts delivered votes touching object i.
	ObjectVotes []int
	// ObjectCoverage[i] is the fraction of the other n-1 objects that i
	// was directly compared against at least once — a per-object
	// confidence proxy in [0, 1].
	ObjectCoverage []float64
	// UncoveredObjects lists objects with no votes at all, ascending.
	UncoveredObjects []int
	// MeanCoverage averages ObjectCoverage over all objects.
	MeanCoverage float64
}

// Degraded reports whether any object lacks direct evidence entirely.
func (c CoverageReport) Degraded() bool { return len(c.UncoveredObjects) > 0 }

// MeasureCoverage computes the per-object coverage of a vote set over n
// objects. Votes must already be sanitized (object ids in range).
func MeasureCoverage(n int, votes []Vote) CoverageReport {
	counts := make([]int, n)
	partners := make([]map[int]bool, n)
	for _, v := range votes {
		counts[v.I]++
		counts[v.J]++
		if partners[v.I] == nil {
			partners[v.I] = make(map[int]bool)
		}
		if partners[v.J] == nil {
			partners[v.J] = make(map[int]bool)
		}
		partners[v.I][v.J] = true
		partners[v.J][v.I] = true
	}
	rep := CoverageReport{
		ObjectVotes:    counts,
		ObjectCoverage: make([]float64, n),
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		if n > 1 {
			rep.ObjectCoverage[i] = float64(len(partners[i])) / float64(n-1)
		} else {
			rep.ObjectCoverage[i] = 1
		}
		sum += rep.ObjectCoverage[i]
		if counts[i] == 0 {
			rep.UncoveredObjects = append(rep.UncoveredObjects, i)
		}
	}
	sort.Ints(rep.UncoveredObjects)
	if n > 0 {
		rep.MeanCoverage = sum / float64(n)
	}
	return rep
}
