package crowdrank_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"crowdrank"
)

// The public surface of package crowdrank, named one identifier at a time.
// TestPublicSurface holds the package to exactly these top-level names and
// these exported struct fields, so a change that drops, renames or adds a
// public name, or reshapes a public struct, fails here first. Whether a type
// is declared in the package or re-exported as an alias does not matter:
// both spell the same names.

var surfaceFuncs = map[string]any{
	"Accuracy":                crowdrank.Accuracy,
	"BordaRank":               crowdrank.BordaRank,
	"BradleyTerryRank":        crowdrank.BradleyTerryRank,
	"CalibrateBudget":         crowdrank.CalibrateBudget,
	"CertifyRanking":          crowdrank.CertifyRanking,
	"CrowdBTFit":              crowdrank.CrowdBTFit,
	"DefaultCollectConfig":    crowdrank.DefaultCollectConfig,
	"DefaultImageStudyConfig": crowdrank.DefaultImageStudyConfig,
	"DefaultServeConfig":      crowdrank.DefaultServeConfig,
	"DefaultSimConfig":        crowdrank.DefaultSimConfig,
	"Infer":                   crowdrank.Infer,
	"InferContext":            crowdrank.InferContext,
	"KendallTau":              crowdrank.KendallTau,
	"KendallTauDistance":      crowdrank.KendallTauDistance,
	"MajorityRank":            crowdrank.MajorityRank,
	"MeasureCoverage":         crowdrank.MeasureCoverage,
	"NewRankServer":           crowdrank.NewRankServer,
	"PlanTasks":               crowdrank.PlanTasks,
	"PlanTasksBudget":         crowdrank.PlanTasksBudget,
	"PlanTasksRatio":          crowdrank.PlanTasksRatio,
	"QuickSortRank":           crowdrank.QuickSortRank,
	"ReadPairsCSV":            crowdrank.ReadPairsCSV,
	"ReadVotesCSV":            crowdrank.ReadVotesCSV,
	"RepeatChoice":            crowdrank.RepeatChoice,
	"RunBaseline":             crowdrank.RunBaseline,
	"RunInteractiveCrowdBT":   crowdrank.RunInteractiveCrowdBT,
	"SanitizeVotes":           crowdrank.SanitizeVotes,
	"SimulateImageRanking":    crowdrank.SimulateImageRanking,
	"SimulateUnreliableVotes": crowdrank.SimulateUnreliableVotes,
	"SimulateVotes":           crowdrank.SimulateVotes,
	"SpearmanRho":             crowdrank.SpearmanRho,
	"TopKOverlap":             crowdrank.TopKOverlap,
	"ValidateVotes":           crowdrank.ValidateVotes,
	"WithAlpha":               crowdrank.WithAlpha,
	"WithMaxHops":             crowdrank.WithMaxHops,
	"WithObjective":           crowdrank.WithObjective,
	"WithParallelism":         crowdrank.WithParallelism,
	"WithPolish":              crowdrank.WithPolish,
	"WithSAPS":                crowdrank.WithSAPS,
	"WithSearch":              crowdrank.WithSearch,
	"WithSeed":                crowdrank.WithSeed,
	"WithSmoothing":           crowdrank.WithSmoothing,
	"WithStrictVotes":         crowdrank.WithStrictVotes,
	"WithTruthDiscovery":      crowdrank.WithTruthDiscovery,
	"WritePairsCSV":           crowdrank.WritePairsCSV,
	"WriteVotesCSV":           crowdrank.WriteVotesCSV,
}

// surfaceMethods lists the methods the package documents on its types. The
// package may declare them itself or inherit them through an alias.
var surfaceMethods = map[string]any{
	"Budget.MaxTasks":             crowdrank.Budget.MaxTasks,
	"CollectionReport.String":     crowdrank.CollectionReport.String,
	"CoverageReport.Degraded":     crowdrank.CoverageReport.Degraded,
	"FaultConfig.Zero":            crowdrank.FaultConfig.Zero,
	"PathObjective.String":        crowdrank.PathObjective.String,
	"Plan.Degrees":                (*crowdrank.Plan).Degrees,
	"Plan.FairnessProbability":    (*crowdrank.Plan).FairnessProbability,
	"Plan.HPLikelihoodLowerBound": (*crowdrank.Plan).HPLikelihoodLowerBound,
	"Plan.PackHITs":               (*crowdrank.Plan).PackHITs,
	"Plan.Validate":               (*crowdrank.Plan).Validate,
	"Plan.WriteDOT":               (*crowdrank.Plan).WriteDOT,
	"Result.SuspectWorkers":       (*crowdrank.Result).SuspectWorkers,
	"Result.TopK":                 (*crowdrank.Result).TopK,
	"SearchAlgorithm.String":      crowdrank.SearchAlgorithm.String,
	"StepTimings.Total":           crowdrank.StepTimings.Total,
	"VoteError.Error":             (*crowdrank.VoteError).Error,
	"WorkerDistribution.String":   crowdrank.WorkerDistribution.String,
	"WorkerQualityLevel.String":   crowdrank.WorkerQualityLevel.String,
}

// surfaceTypes maps every exported type to its exported struct fields in
// declaration order (nil for non-struct types).
var surfaceTypes = map[string]struct {
	typ    reflect.Type
	fields []string
}{
	"BaselineName":      {reflect.TypeFor[crowdrank.BaselineName](), nil},
	"Budget":            {reflect.TypeFor[crowdrank.Budget](), []string{"Total", "Reward", "WorkersPerTask"}},
	"CalibrationPoint":  {reflect.TypeFor[crowdrank.CalibrationPoint](), []string{"Ratio", "Tasks", "Accuracy"}},
	"CalibrationResult": {reflect.TypeFor[crowdrank.CalibrationResult](), []string{"Ratio", "Tasks", "EstimatedAccuracy", "Curve"}},
	"Certificate":       {reflect.TypeFor[crowdrank.Certificate](), []string{"Score", "UpperBound", "Gap"}},
	"CollectConfig":     {reflect.TypeFor[crowdrank.CollectConfig](), []string{"Deadline", "MaxReposts", "BudgetSlack"}},
	"CollectionReport": {reflect.TypeFor[crowdrank.CollectionReport](), []string{
		"PlannedVotes", "Delivered", "Repaired", "Lost", "LostToDropout", "LostLate", "LostPartial",
		"Malformed", "Duplicates", "Reposts", "Waves", "Spent", "RepairSpent", "Makespan",
		"ResidualCoverage", "UncoveredPairs"}},
	"CoverageReport": {reflect.TypeFor[crowdrank.CoverageReport](), []string{"ObjectVotes", "ObjectCoverage", "UncoveredObjects", "MeanCoverage"}},
	"CrowdBTResult":  {reflect.TypeFor[crowdrank.CrowdBTResult](), []string{"Ranking", "Scores", "Reliability"}},
	"FaultConfig": {reflect.TypeFor[crowdrank.FaultConfig](), []string{
		"DropoutRate", "StragglerRate", "StragglerFactor", "PartialRate", "DuplicateRate", "SpamRate", "Seed"}},
	"HIT":               {reflect.TypeFor[crowdrank.HIT](), []string{"ID", "Pairs"}},
	"ImageStudyConfig":  {reflect.TypeFor[crowdrank.ImageStudyConfig](), []string{"Images", "MaxRankGap", "WorkersPerComparison", "Ratio", "Reward", "Seed"}},
	"ImageStudyRound":   {reflect.TypeFor[crowdrank.ImageStudyRound](), []string{"N", "Workers", "Votes", "Spent"}},
	"InteractiveResult": {reflect.TypeFor[crowdrank.InteractiveResult](), []string{"Ranking", "Rounds", "Spent", "SimulatedLatency", "GroundTruth"}},
	"Option":            {reflect.TypeFor[crowdrank.Option](), nil},
	"Pair":              {reflect.TypeFor[crowdrank.Pair](), []string{"I", "J"}},
	"PathObjective":     {reflect.TypeFor[crowdrank.PathObjective](), nil},
	"Plan":              {reflect.TypeFor[crowdrank.Plan](), []string{"N", "L", "Pairs", "SeedPath", "TargetDegree"}},
	"RankServer":        {reflect.TypeFor[crowdrank.RankServer](), []string{}},
	"Result": {reflect.TypeFor[crowdrank.Result](), []string{
		"Ranking", "LogProb", "WorkerQuality", "TruthIterations", "TruthConverged", "OneEdges",
		"UninformedPairs", "Seed", "Sanitization", "Coverage", "Timings"}},
	"SanitizeReport":  {reflect.TypeFor[crowdrank.SanitizeReport](), []string{"Input", "Kept", "OutOfRangePairs", "SelfPairs", "InvalidWorkers", "Duplicates"}},
	"SearchAlgorithm": {reflect.TypeFor[crowdrank.SearchAlgorithm](), nil},
	"ServeConfig": {reflect.TypeFor[crowdrank.ServeConfig](), []string{
		"N", "M", "JournalPath", "JournalSync", "SnapshotEveryBatches", "SnapshotMaxJournalBytes",
		"SnapshotKeep", "Seed", "Parallelism", "IdempotencyWindow", "Clock", "SlowRequestThreshold", "Logf"}},
	"ServeIngestResult": {reflect.TypeFor[crowdrank.ServeIngestResult](), []string{
		"Accepted", "Duplicates", "Malformed", "Seq", "TotalVotes", "Replayed"}},
	"ServeRankResult": {reflect.TypeFor[crowdrank.ServeRankResult](), []string{
		"Ranking", "LogProb", "Algorithm", "Degraded", "Votes", "Seed", "Breaker", "Elapsed", "Gen"}},
	"SimConfig": {reflect.TypeFor[crowdrank.SimConfig](), []string{
		"Workers", "WorkersPerTask", "PairsPerHIT", "Distribution", "Level", "BalancedAssignment", "Seed"}},
	"SimRound":           {reflect.TypeFor[crowdrank.SimRound](), []string{"Votes", "GroundTruth", "WorkerSigmas", "Spent"}},
	"StepTimings":        {reflect.TypeFor[crowdrank.StepTimings](), []string{"TruthDiscovery", "Smoothing", "Propagation", "Search"}},
	"Vote":               {reflect.TypeFor[crowdrank.Vote](), []string{"Worker", "I", "J", "PrefersI"}},
	"VoteError":          {reflect.TypeFor[crowdrank.VoteError](), []string{"Index", "Vote", "Reason"}},
	"WorkerDistribution": {reflect.TypeFor[crowdrank.WorkerDistribution](), nil},
	"WorkerQualityLevel": {reflect.TypeFor[crowdrank.WorkerQualityLevel](), nil},
}

// surfaceEnum is one exported constant: its value and, for the enums that
// name themselves, its String.
type surfaceEnum struct {
	value any
	str   string
}

var surfaceConsts = map[string]surfaceEnum{
	"SearchAuto":           {int(crowdrank.SearchAuto), crowdrank.SearchAuto.String()},
	"SearchSAPS":           {int(crowdrank.SearchSAPS), crowdrank.SearchSAPS.String()},
	"SearchTAPS":           {int(crowdrank.SearchTAPS), crowdrank.SearchTAPS.String()},
	"SearchHeldKarp":       {int(crowdrank.SearchHeldKarp), crowdrank.SearchHeldKarp.String()},
	"SearchBruteForce":     {int(crowdrank.SearchBruteForce), crowdrank.SearchBruteForce.String()},
	"SearchBranchBound":    {int(crowdrank.SearchBranchBound), crowdrank.SearchBranchBound.String()},
	"AllPairsObjective":    {int(crowdrank.AllPairsObjective), crowdrank.AllPairsObjective.String()},
	"ConsecutiveObjective": {int(crowdrank.ConsecutiveObjective), crowdrank.ConsecutiveObjective.String()},
	"GaussianWorkers":      {int(crowdrank.GaussianWorkers), crowdrank.GaussianWorkers.String()},
	"UniformWorkers":       {int(crowdrank.UniformWorkers), crowdrank.UniformWorkers.String()},
	"HighQualityWorkers":   {int(crowdrank.HighQualityWorkers), crowdrank.HighQualityWorkers.String()},
	"MediumQualityWorkers": {int(crowdrank.MediumQualityWorkers), crowdrank.MediumQualityWorkers.String()},
	"LowQualityWorkers":    {int(crowdrank.LowQualityWorkers), crowdrank.LowQualityWorkers.String()},
	"JournalSyncAlways":    {int(crowdrank.JournalSyncAlways), crowdrank.JournalSyncAlways.String()},
	"JournalSyncOS":        {int(crowdrank.JournalSyncOS), crowdrank.JournalSyncOS.String()},
	"BaselineRC":           {string(crowdrank.BaselineRC), ""},
	"BaselineQS":           {string(crowdrank.BaselineQS), ""},
	"BaselineMajority":     {string(crowdrank.BaselineMajority), ""},
	"BaselineBorda":        {string(crowdrank.BaselineBorda), ""},
	"BaselineCrowdBT":      {string(crowdrank.BaselineCrowdBT), ""},
	"BaselineBTL":          {string(crowdrank.BaselineBTL), ""},
}

var wantConsts = map[string]surfaceEnum{
	"SearchAuto":           {0, "auto"},
	"SearchSAPS":           {1, "saps"},
	"SearchTAPS":           {2, "taps"},
	"SearchHeldKarp":       {3, "heldkarp"},
	"SearchBruteForce":     {4, "bruteforce"},
	"SearchBranchBound":    {5, "branchbound"},
	"AllPairsObjective":    {0, "all-pairs"},
	"ConsecutiveObjective": {1, "consecutive"},
	"GaussianWorkers":      {1, "gaussian"},
	"UniformWorkers":       {2, "uniform"},
	"HighQualityWorkers":   {1, "high"},
	"MediumQualityWorkers": {2, "medium"},
	"LowQualityWorkers":    {3, "low"},
	"JournalSyncAlways":    {0, "always"},
	"JournalSyncOS":        {1, "os"},
	"BaselineRC":           {"rc", ""},
	"BaselineQS":           {"qs", ""},
	"BaselineMajority":     {"majority", ""},
	"BaselineBorda":        {"borda", ""},
	"BaselineCrowdBT":      {"crowdbt", ""},
	"BaselineBTL":          {"btl", ""},
}

// declaredSurface parses the package's non-test files and returns its
// exported top-level names (functions, types, constants and variables) and
// the exported methods it declares, as "Type.Method".
func declaredSurface(t *testing.T) (names, methods []string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["crowdrank"]
	if pkg == nil {
		t.Fatal("package crowdrank not found in the test's directory")
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				methods = append(methods, recv.(*ast.Ident).Name+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	sort.Strings(methods)
	return names, methods
}

func TestPublicSurface(t *testing.T) {
	names, methods := declaredSurface(t)

	var listed []string
	for name := range surfaceFuncs {
		listed = append(listed, name)
	}
	for name := range surfaceTypes {
		listed = append(listed, name)
	}
	for name := range surfaceConsts {
		listed = append(listed, name)
	}
	sort.Strings(listed)
	if !slices.Equal(names, listed) {
		t.Errorf("exported names changed:\n declared %q\n listed   %q", names, listed)
	}
	for _, m := range methods {
		if _, ok := surfaceMethods[m]; !ok {
			t.Errorf("method %s is declared but not listed", m)
		}
	}

	for name, st := range surfaceTypes {
		if st.fields == nil {
			if st.typ.Kind() == reflect.Struct {
				t.Errorf("%s is a struct; list its fields", name)
			}
			continue
		}
		if st.typ.Kind() != reflect.Struct {
			t.Errorf("%s is a %s, not a struct", name, st.typ.Kind())
			continue
		}
		var got []string
		for _, f := range reflect.VisibleFields(st.typ) {
			if f.IsExported() && len(f.Index) == 1 {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, st.fields) {
			t.Errorf("%s fields = %q, want %q", name, got, st.fields)
		}
	}

	for name, want := range wantConsts {
		if got := surfaceConsts[name]; got != want {
			t.Errorf("%s = %v (String %q), want %v (String %q)", name, got.value, got.str, want.value, want.str)
		}
	}
	if len(wantConsts) != len(surfaceConsts) {
		t.Errorf("%d constants listed, %d values pinned", len(surfaceConsts), len(wantConsts))
	}
}
