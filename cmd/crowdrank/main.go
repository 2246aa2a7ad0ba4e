// Command crowdrank is the requester-side CLI: it plans budget-constrained
// pairwise comparison tasks, (optionally) simulates a crowd answering them,
// and infers the full ranking from collected votes.
//
// Usage:
//
//	crowdrank plan     -n 100 -ratio 0.1 -seed 1 -out plan.json
//	crowdrank simulate -plan plan.json -workers 30 -per-task 10 \
//	                   -dist gaussian -level medium -seed 2 -out votes.json
//	crowdrank infer    -plan plan.json -votes votes.json [-seed 3] [-search saps]
//
// Files are JSON; see the PlanFile and VotesFile types for the schemas.
// `infer` prints the inferred ranking and, when the votes file carries a
// simulated ground truth, the Kendall accuracy against it. Malformed votes
// files (out-of-range ids, self-pairs) are rejected; pass -clean to drop
// bad votes instead. `simulate -dropout/-spam/-dup` routes the round
// through an unreliable marketplace and prints the collection report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"crowdrank"
)

// PlanFile is the on-disk schema of a task plan.
type PlanFile struct {
	N            int              `json:"n"`
	L            int              `json:"l"`
	Seed         uint64           `json:"seed"`
	TargetDegree int              `json:"targetDegree"`
	Pairs        []crowdrank.Pair `json:"pairs"`
	SeedPath     []int            `json:"seedPath"`
}

// VotesFile is the on-disk schema of collected votes. GroundTruth is
// present only for simulated rounds.
type VotesFile struct {
	N           int              `json:"n"`
	Workers     int              `json:"workers"`
	Votes       []crowdrank.Vote `json:"votes"`
	GroundTruth []int            `json:"groundTruth,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = runPlan(os.Args[2:])
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "infer":
		err = runInfer(os.Args[2:])
	case "dot":
		err = runDOT(os.Args[2:])
	case "calibrate":
		err = runCalibrate(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "crowdrank: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crowdrank: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  crowdrank plan     -n <objects> (-ratio <r> | -l <tasks> | -budget <B> -reward <r> -per-task <w>) [-seed S] -out plan.json
  crowdrank simulate -plan plan.json -workers <m> -per-task <w> [-dist gaussian|uniform] [-level high|medium|low] [-dropout P] [-spam P] [-dup P] [-seed S] -out votes.json
  crowdrank infer    -plan plan.json -votes votes.json [-seed S] [-search auto|saps|taps|heldkarp|bruteforce] [-alpha A] [-hops H]
  crowdrank dot      -plan plan.json [-out graph.dot]
  crowdrank calibrate -n <objects> -target <accuracy> [-pilots P] [-level high|medium|low] [-seed S]`)
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	n := fs.Int("n", 0, "number of objects")
	ratio := fs.Float64("ratio", 0, "selection ratio of all pairs (0,1]")
	l := fs.Int("l", 0, "explicit number of comparison tasks")
	budget := fs.Float64("budget", 0, "money budget B")
	reward := fs.Float64("reward", 0.025, "reward per comparison per worker")
	perTask := fs.Int("per-task", 10, "workers answering each comparison")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "plan.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("plan: -n must be at least 2")
	}

	var plan *crowdrank.Plan
	var err error
	switch {
	case *l > 0:
		plan, err = crowdrank.PlanTasks(*n, *l, *seed)
	case *ratio > 0:
		plan, err = crowdrank.PlanTasksRatio(*n, *ratio, *seed)
	case *budget > 0:
		plan, err = crowdrank.PlanTasksBudget(*n, crowdrank.Budget{
			Total: *budget, Reward: *reward, WorkersPerTask: *perTask,
		}, *seed)
	default:
		return fmt.Errorf("plan: one of -ratio, -l, -budget is required")
	}
	if err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return err
	}

	file := PlanFile{
		N:            plan.N,
		L:            plan.L,
		Seed:         *seed,
		TargetDegree: plan.TargetDegree,
		Pairs:        plan.Pairs,
		SeedPath:     plan.SeedPath,
	}
	if err := writeJSON(*out, file); err != nil {
		return err
	}
	bound, err := plan.HPLikelihoodLowerBound()
	if err != nil {
		return err
	}
	fmt.Printf("planned %d comparison tasks over %d objects (target degree %d, HP-likelihood bound %.4f) -> %s\n",
		plan.L, plan.N, plan.TargetDegree, bound, *out)
	return nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	planPath := fs.String("plan", "plan.json", "plan file")
	workers := fs.Int("workers", 30, "worker pool size m")
	perTask := fs.Int("per-task", 10, "workers answering each comparison")
	dist := fs.String("dist", "gaussian", "worker quality distribution: gaussian|uniform")
	level := fs.String("level", "medium", "worker quality level: high|medium|low")
	seed := fs.Uint64("seed", 2, "random seed")
	out := fs.String("out", "votes.json", "output file")
	dropout := fs.Float64("dropout", 0, "probability a claimed HIT is never returned")
	spam := fs.Float64("spam", 0, "probability a delivered vote is malformed garbage")
	dup := fs.Float64("dup", 0, "probability a delivered vote is submitted twice")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var pf PlanFile
	if err := readJSON(*planPath, &pf); err != nil {
		return err
	}
	plan, err := crowdrank.PlanTasks(pf.N, pf.L, pf.Seed)
	if err != nil {
		return fmt.Errorf("rebuilding plan: %w", err)
	}

	cfg := crowdrank.SimConfig{
		Workers:        *workers,
		WorkersPerTask: *perTask,
		PairsPerHIT:    1,
		Seed:           *seed,
	}
	switch *dist {
	case "gaussian":
		cfg.Distribution = crowdrank.GaussianWorkers
	case "uniform":
		cfg.Distribution = crowdrank.UniformWorkers
	default:
		return fmt.Errorf("simulate: unknown distribution %q", *dist)
	}
	switch *level {
	case "high":
		cfg.Level = crowdrank.HighQualityWorkers
	case "medium":
		cfg.Level = crowdrank.MediumQualityWorkers
	case "low":
		cfg.Level = crowdrank.LowQualityWorkers
	default:
		return fmt.Errorf("simulate: unknown level %q", *level)
	}

	fc := crowdrank.FaultConfig{
		DropoutRate:   *dropout,
		SpamRate:      *spam,
		DuplicateRate: *dup,
		Seed:          *seed ^ 0xfa11fa11,
	}
	var round *crowdrank.SimRound
	if fc.Zero() {
		round, err = crowdrank.SimulateVotes(plan, cfg)
	} else {
		// An unreliable marketplace: votes are collected through the
		// fault-tolerant protocol and written raw, garbage included.
		var report *crowdrank.CollectionReport
		round, report, err = crowdrank.SimulateUnreliableVotes(plan, cfg, fc, crowdrank.DefaultCollectConfig())
		if err == nil {
			fmt.Println("collection:", report)
		}
	}
	if err != nil {
		return err
	}
	if strings.HasSuffix(*out, ".csv") {
		if err := writeVotesCSVFile(*out, round.Votes); err != nil {
			return err
		}
	} else {
		file := VotesFile{
			N:           plan.N,
			Workers:     cfg.Workers,
			Votes:       round.Votes,
			GroundTruth: round.GroundTruth,
		}
		if err := writeJSON(*out, file); err != nil {
			return err
		}
	}
	fmt.Printf("simulated %d votes from %d workers (%s/%s quality) -> %s\n",
		len(round.Votes), cfg.Workers, *dist, *level, *out)
	return nil
}

func runInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	planPath := fs.String("plan", "plan.json", "plan file (used for n)")
	votesPath := fs.String("votes", "votes.json", "votes file")
	seed := fs.Uint64("seed", 3, "random seed for smoothing and SAPS")
	searchName := fs.String("search", "auto", "searcher: auto|saps|taps|heldkarp|bruteforce|branchbound")
	alpha := fs.Float64("alpha", 0.5, "direct/indirect blend weight")
	hops := fs.Int("hops", 3, "propagation hop bound")
	workerReport := fs.Bool("worker-report", false, "print per-worker estimated quality")
	clean := fs.Bool("clean", false, "drop invalid votes and duplicate submissions before inference")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var pf PlanFile
	if err := readJSON(*planPath, &pf); err != nil {
		return err
	}
	var vf VotesFile
	if strings.HasSuffix(*votesPath, ".csv") {
		votes, workers, err := readVotesCSVFile(*votesPath)
		if err != nil {
			return err
		}
		vf = VotesFile{N: pf.N, Workers: workers, Votes: votes}
	} else if err := readJSON(*votesPath, &vf); err != nil {
		return err
	}
	if vf.N != 0 && vf.N != pf.N {
		return fmt.Errorf("infer: votes file is for n=%d but plan has n=%d", vf.N, pf.N)
	}

	if *clean {
		cleaned, report := crowdrank.SanitizeVotes(pf.N, vf.Workers, vf.Votes)
		fmt.Println("cleaning:", report)
		vf.Votes = cleaned
	} else if err := crowdrank.ValidateVotes(pf.N, vf.Workers, vf.Votes); err != nil {
		// Malformed input is rejected up front; -clean opts into dropping
		// bad votes instead.
		return fmt.Errorf("infer: %w (rerun with -clean to drop bad votes)", err)
	}

	alg, err := parseSearch(*searchName)
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := crowdrank.Infer(pf.N, vf.Workers, vf.Votes,
		crowdrank.WithSeed(*seed),
		crowdrank.WithSearch(alg),
		crowdrank.WithAlpha(*alpha),
		crowdrank.WithMaxHops(*hops),
	)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("ranking (best first): %v\n", res.Ranking)
	if res.Coverage.Degraded() {
		fmt.Printf("warning: %d objects have no direct votes (mean coverage %.3f); their positions are propagation-only\n",
			len(res.Coverage.UncoveredObjects), res.Coverage.MeanCoverage)
	}
	fmt.Printf("inference: %v total (truth %v, smooth %v, propagate %v, search %v)\n",
		elapsed.Round(time.Millisecond),
		res.Timings.TruthDiscovery.Round(time.Millisecond),
		res.Timings.Smoothing.Round(time.Millisecond),
		res.Timings.Propagation.Round(time.Millisecond),
		res.Timings.Search.Round(time.Millisecond))
	fmt.Printf("diagnostics: %d one-edges smoothed, %d uninformed pairs, truth discovery %d iterations (converged=%v)\n",
		res.OneEdges, res.UninformedPairs, res.TruthIterations, res.TruthConverged)
	if *workerReport {
		printWorkerReport(res.WorkerQuality)
	}
	if len(vf.GroundTruth) == pf.N {
		acc, err := crowdrank.Accuracy(res.Ranking, vf.GroundTruth)
		if err != nil {
			return err
		}
		tau, err := crowdrank.KendallTau(res.Ranking, vf.GroundTruth)
		if err != nil {
			return err
		}
		fmt.Printf("vs simulated ground truth: accuracy %.4f, Kendall tau %.4f\n", acc, tau)
	}
	return nil
}

// parseSearch maps a -search name to the searcher whose String it is.
func parseSearch(name string) (crowdrank.SearchAlgorithm, error) {
	for alg := crowdrank.SearchAuto; alg <= crowdrank.SearchBranchBound; alg++ {
		if alg.String() == name {
			return alg, nil
		}
	}
	return 0, fmt.Errorf("infer: unknown searcher %q", name)
}

// runCalibrate searches for the smallest budget reaching a target accuracy
// with simulated pilot rounds (the paper's future-work objective of
// minimizing comparisons for acceptable accuracy).
func runCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	n := fs.Int("n", 0, "number of objects")
	target := fs.Float64("target", 0.9, "target ranking accuracy in (0.5, 1)")
	pilots := fs.Int("pilots", 2, "simulated pilot rounds per candidate budget")
	level := fs.String("level", "medium", "assumed worker quality: high|medium|low")
	seed := fs.Uint64("seed", 5, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("calibrate: -n must be at least 2")
	}
	cfg := crowdrank.DefaultSimConfig(*seed)
	switch *level {
	case "high":
		cfg.Level = crowdrank.HighQualityWorkers
	case "medium":
		cfg.Level = crowdrank.MediumQualityWorkers
	case "low":
		cfg.Level = crowdrank.LowQualityWorkers
	default:
		return fmt.Errorf("calibrate: unknown level %q", *level)
	}
	res, err := crowdrank.CalibrateBudget(*n, *target, cfg, *pilots)
	if res != nil {
		fmt.Printf("evaluated curve (ratio -> tasks -> mean pilot accuracy):\n")
		for _, p := range res.Curve {
			fmt.Printf("  %.4f  %6d  %.4f\n", p.Ratio, p.Tasks, p.Accuracy)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("smallest budget reaching %.3f: ratio %.4f (%d comparisons, estimated accuracy %.4f)\n",
		*target, res.Ratio, res.Tasks, res.EstimatedAccuracy)
	return nil
}

// runDOT exports the plan's task graph as Graphviz DOT.
func runDOT(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	planPath := fs.String("plan", "plan.json", "plan file")
	out := fs.String("out", "", "output file (stdout when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var pf PlanFile
	if err := readJSON(*planPath, &pf); err != nil {
		return err
	}
	plan, err := crowdrank.PlanTasks(pf.N, pf.L, pf.Seed)
	if err != nil {
		return fmt.Errorf("rebuilding plan: %w", err)
	}
	if *out == "" {
		return plan.WriteDOT(os.Stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("creating %s: %w", *out, err)
	}
	defer closeQuietly(f)
	if err := plan.WriteDOT(f); err != nil {
		return err
	}
	return f.Close()
}

// printWorkerReport lists workers by descending estimated quality.
func printWorkerReport(quality []float64) {
	type wq struct {
		worker  int
		quality float64
	}
	rows := make([]wq, 0, len(quality))
	for w, q := range quality {
		if q > 0 { // workers with no votes have quality 0
			rows = append(rows, wq{worker: w, quality: q})
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].quality > rows[b].quality })
	fmt.Println("worker quality (best first):")
	for _, r := range rows {
		fmt.Printf("  worker %-5d %.4f\n", r.worker, r.quality)
	}
}

// writeVotesCSVFile writes votes in the crowdrank CSV schema.
func writeVotesCSVFile(path string, votes []crowdrank.Vote) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer closeQuietly(f)
	if err := crowdrank.WriteVotesCSV(f, votes); err != nil {
		return err
	}
	return f.Close()
}

// readVotesCSVFile reads CSV votes and derives the worker-pool size from
// the largest worker id seen.
func readVotesCSVFile(path string) ([]crowdrank.Vote, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("opening %s: %w", path, err)
	}
	defer closeQuietly(f)
	votes, err := crowdrank.ReadVotesCSV(f)
	if err != nil {
		return nil, 0, err
	}
	workers := 0
	for _, v := range votes {
		if v.Worker+1 > workers {
			workers = v.Worker + 1
		}
	}
	return votes, workers, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// closeQuietly closes f ignoring the error: used only as a deferred
// double-close safety net after the success path has already checked an
// explicit Close, or on read-only files where a close error carries no
// information.
func closeQuietly(f *os.File) {
	//lint:ignore errcheck deferred double-close safety net; the success path checks an explicit Close and read-only closes carry no information
	_ = f.Close()
}
