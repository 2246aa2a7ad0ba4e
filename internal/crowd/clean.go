package crowd

import "fmt"

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
// votes valid for n objects and m workers (Classify). It also drops exact
// duplicates of the same worker answering the same pair the same way
// (double submissions, in either object order). Conflicting repeat answers
// by the same worker are kept — they are genuine observations for truth
// discovery. The input is not modified.
func Clean(votes []Vote, n, m int) ([]Vote, CleanReport) {
	report := CleanReport{Input: len(votes)}
	out := make([]Vote, 0, len(votes))
	seen := make(map[Submission]bool, len(votes))
	for _, v := range votes {
		switch Classify(v, n, m) {
		case ObjectOutOfRange:
			report.OutOfRangePairs++
			continue
		case SelfPair:
			report.SelfPairs++
			continue
		case WorkerOutOfRange:
			report.InvalidWorkers++
			continue
		}
		key := v.Submission()
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
