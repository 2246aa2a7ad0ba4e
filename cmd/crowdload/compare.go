package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// boundDef is one end-to-end metric as BENCHMARK.json declares it.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// verdict is one (metric, workload) row of a comparison.
type verdict struct {
	Metric, Workload     string
	Base, Change         float64 // medians
	BaseSpread, ChSpread float64 // quartile distance over median
	Gain                 float64 // relative change, positive = better
	Bound                float64
	BaseFail, ChFail     float64 // failed share of attempted operations
	Verdict              string  // better, worse, same, or unresolved
}

// failShare is the share of attempted operations that failed over the
// untraced runs of one workload.
func failShare(runs []runRecord, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareRuns judges every end-to-end metric on every workload present
// in both sets of runs, from their untraced, correct runs. A change
// beyond the bound is better or worse; within it, same. When either
// side's run-to-run spread exceeds the bound the difference cannot be
// told from noise and the row is unresolved, unless every run of one
// side reads better than every run of the other. Failed operations are
// left out of the latency percentiles, so a change that fails a larger
// share of its operations than the base is worse on every row of that
// workload, whatever its metrics read.
func compareRuns(defs []boundDef, base, change []runRecord) []verdict {
	values := func(runs []runRecord, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if r.Workload == workload && !r.Trace && r.Correct {
				if m, ok := r.Metrics[metric]; ok {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	workloadSet := make(map[string]bool)
	for _, r := range base {
		workloadSet[r.Workload] = true
	}
	var names []string
	for w := range workloadSet {
		names = append(names, w)
	}
	sort.Strings(names)
	var out []verdict
	for _, d := range defs {
		for _, w := range names {
			a, b := values(base, w, d.Name), values(change, w, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict{Metric: d.Name, Workload: w, Base: median(a), Change: median(b), BaseSpread: spread(a), ChSpread: spread(b), Bound: d.Bound,
				BaseFail: failShare(base, w), ChFail: failShare(change, w)}
			sign := 1.0
			if d.Better == "lower" {
				sign = -1
			}
			if v.Base > 0 {
				v.Gain = sign * (v.Change - v.Base) / v.Base
			}
			switch {
			case v.ChFail > v.BaseFail:
				v.Verdict = "worse"
			case v.Base <= 0:
				v.Verdict = "unresolved"
			case v.BaseSpread > d.Bound || v.ChSpread > d.Bound:
				v.Verdict = "unresolved"
				if dominates(b, a, sign) {
					v.Verdict = "better"
				} else if dominates(a, b, sign) {
					v.Verdict = "worse"
				}
			case v.Gain > d.Bound:
				v.Verdict = "better"
			case v.Gain < -d.Bound:
				v.Verdict = "worse"
			default:
				v.Verdict = "same"
			}
			out = append(out, v)
		}
	}
	return out
}

// dominates reports whether every x reads better than every y, where
// sign is +1 for higher-is-better and -1 for lower-is-better.
func dominates(xs, ys []float64, sign float64) bool {
	worstX, bestY := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		worstX = math.Min(worstX, sign*x)
	}
	for _, y := range ys {
		bestY = math.Max(bestY, sign*y)
	}
	return worstX > bestY
}

// quartiles are the first and third quartiles by the "exclusive" method
// (Python's statistics.quantiles(xs, n=4) default).
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med <= 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// compareFiles prints the comparison of two result sets and exits 1 when
// any row is worse. With two files it compares their last sets; with one,
// its first and last.
func compareFiles(stdout, stderr io.Writer, benchPath string, paths []string) int {
	var spec benchSpec
	raw, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "crowdload: reading %s: %v\n", benchPath, err)
		return 2
	}
	var sets [][]runRecord
	for _, p := range paths {
		f, err := readResults(p)
		if err != nil {
			fmt.Fprintf(stderr, "crowdload: %v\n", err)
			return 2
		}
		if len(f.Sets) < 3-len(paths) {
			fmt.Fprintf(stderr, "crowdload: %s holds %d result sets, too few to compare\n", p, len(f.Sets))
			return 2
		}
		if len(paths) == 1 {
			sets = append(sets, f.Sets[0])
		}
		sets = append(sets, f.Sets[len(f.Sets)-1])
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-12s %12s %12s %8s %8s %8s %7s %8s %8s  %s\n", "metric", "workload", "base", "change", "gain", "spread0", "spread1", "bound", "failed0", "failed1", "verdict")
	for _, v := range compareRuns(spec.EndToEnd, sets[0], sets[1]) {
		fmt.Fprintf(stdout, "%-14s %-12s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %6.1f%% %7.3f%% %7.3f%%  %s\n",
			v.Metric, v.Workload, v.Base, v.Change, 100*v.Gain, 100*v.BaseSpread, 100*v.ChSpread, 100*v.Bound, 100*v.BaseFail, 100*v.ChFail, v.Verdict)
		if v.Verdict == "worse" {
			code = 1
		}
	}
	return code
}
