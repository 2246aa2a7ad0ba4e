package crowd

import (
	"fmt"

	"crowdrank/internal/feq"
	"crowdrank/internal/graph"
)

// CleanReport summarizes what Clean dropped. A zero Dropped() means the
// input was already clean.
type CleanReport struct {
	// Input and Kept count votes before and after cleaning.
	Input int
	Kept  int
	// OutOfRangePairs counts votes whose object ids fall outside [0, n);
	// SelfPairs votes comparing an object with itself; InvalidWorkers votes
	// from worker ids outside [0, m); Duplicates exact re-submissions (same
	// worker, same pair, same answer) beyond the first.
	OutOfRangePairs int
	SelfPairs       int
	InvalidWorkers  int
	Duplicates      int
}

// Dropped returns how many votes cleaning removed.
func (r CleanReport) Dropped() int { return r.Input - r.Kept }

// Clean reports whether the input needed no repairs.
func (r CleanReport) Clean() bool { return r.Dropped() == 0 }

// String renders the report compactly for logs and CLI output.
func (r CleanReport) String() string {
	return fmt.Sprintf("kept %d of %d (dropped %d out-of-range pair, %d self-pair, %d invalid-worker, %d duplicate)",
		r.Kept, r.Input, r.OutOfRangePairs, r.SelfPairs, r.InvalidWorkers, r.Duplicates)
}

// Clean filters a raw vote list (for example a spreadsheet import) down to
// votes valid for n objects and m workers, checked in this order: object
// ids in range, no self-pair, worker id in range. It also drops exact
// duplicates of the same worker answering the same pair the same way
// (double submissions, in either object order). Conflicting repeat answers
// by the same worker are kept — they are genuine observations for truth
// discovery. The input is not modified.
func Clean(votes []Vote, n, m int) ([]Vote, CleanReport) {
	report := CleanReport{Input: len(votes)}
	out := make([]Vote, 0, len(votes))
	type submission struct {
		worker   int
		pair     graph.Pair
		prefersI bool
	}
	seen := make(map[submission]bool, len(votes))
	for _, v := range votes {
		switch {
		case v.I < 0 || v.I >= n || v.J < 0 || v.J >= n:
			report.OutOfRangePairs++
			continue
		case v.I == v.J:
			report.SelfPairs++
			continue
		case v.Worker < 0 || v.Worker >= m:
			report.InvalidWorkers++
			continue
		}
		key := submission{worker: v.Worker, pair: v.Pair(), prefersI: feq.One(v.Value())}
		if seen[key] {
			report.Duplicates++
			continue
		}
		seen[key] = true
		out = append(out, v)
	}
	report.Kept = len(out)
	return out, report
}

// CoverageGaps returns the canonical pairs from tasks that received no
// votes — the requester-side check for abandoned HITs before inference.
func CoverageGaps(tasks []Vote, votes []Vote) []struct{ I, J int } {
	// tasks is interpreted loosely: any structure with I, J identifying the
	// planned pairs; here we accept Votes for symmetry with CSV imports.
	have := make(map[[2]int]bool)
	for _, v := range votes {
		p := v.Pair()
		have[[2]int{p.I, p.J}] = true
	}
	var gaps []struct{ I, J int }
	seen := make(map[[2]int]bool)
	for _, t := range tasks {
		p := t.Pair()
		key := [2]int{p.I, p.J}
		if seen[key] {
			continue
		}
		seen[key] = true
		if !have[key] {
			gaps = append(gaps, struct{ I, J int }{I: p.I, J: p.J})
		}
	}
	return gaps
}
