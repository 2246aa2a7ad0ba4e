package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdrank"
)

func TestJSONFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	in := PlanFile{
		N: 5, L: 6, Seed: 7, TargetDegree: 2,
		Pairs:    []crowdrank.Pair{{I: 0, J: 1}, {I: 1, J: 2}},
		SeedPath: []int{0, 1, 2, 3, 4},
	}
	if err := writeJSON(path, in); err != nil {
		t.Fatal(err)
	}
	var out PlanFile
	if err := readJSON(path, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != in.N || out.L != in.L || len(out.Pairs) != 2 || out.Pairs[1] != in.Pairs[1] {
		t.Errorf("round trip = %+v", out)
	}
	if err := readJSON(filepath.Join(dir, "missing.json"), &out); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readJSON(bad, &out); err == nil {
		t.Error("malformed JSON should fail")
	}
}

func TestVotesCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "votes.csv")
	votes := []crowdrank.Vote{
		{Worker: 2, I: 0, J: 1, PrefersI: true},
		{Worker: 7, I: 3, J: 4, PrefersI: false},
	}
	if err := writeVotesCSVFile(path, votes); err != nil {
		t.Fatal(err)
	}
	got, workers, err := readVotesCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if workers != 8 { // max worker id + 1
		t.Errorf("derived workers = %d, want 8", workers)
	}
	if len(got) != 2 || got[0] != votes[0] || got[1] != votes[1] {
		t.Errorf("votes = %+v", got)
	}
	if _, _, err := readVotesCSVFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
}

// writeFixtures plans a small round and writes plan + votes files, with the
// votes optionally corrupted by mutate.
func writeFixtures(t *testing.T, mutate func([]crowdrank.Vote) []crowdrank.Vote) (planPath, votesPath string) {
	t.Helper()
	dir := t.TempDir()
	plan, err := crowdrank.PlanTasksRatio(10, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := crowdrank.DefaultSimConfig(2)
	cfg.Workers = 8
	cfg.WorkersPerTask = 3
	round, err := crowdrank.SimulateVotes(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := round.Votes
	if mutate != nil {
		votes = mutate(votes)
	}
	planPath = filepath.Join(dir, "plan.json")
	if err := writeJSON(planPath, PlanFile{N: plan.N, L: plan.L, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	votesPath = filepath.Join(dir, "votes.json")
	if err := writeJSON(votesPath, VotesFile{N: plan.N, Workers: cfg.Workers, Votes: votes}); err != nil {
		t.Fatal(err)
	}
	return planPath, votesPath
}

func TestRunInferRejectsMalformedVotes(t *testing.T) {
	cases := []struct {
		name string
		bad  crowdrank.Vote
	}{
		{"object id out of range", crowdrank.Vote{Worker: 0, I: 0, J: 99, PrefersI: true}},
		{"self pair", crowdrank.Vote{Worker: 0, I: 4, J: 4, PrefersI: true}},
		{"worker id out of range", crowdrank.Vote{Worker: 42, I: 0, J: 1, PrefersI: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			planPath, votesPath := writeFixtures(t, func(v []crowdrank.Vote) []crowdrank.Vote {
				return append(v, tc.bad)
			})
			err := runInfer([]string{"-plan", planPath, "-votes", votesPath, "-seed", "3"})
			if err == nil {
				t.Fatal("malformed votes file accepted")
			}
			if !strings.Contains(err.Error(), "-clean") {
				t.Errorf("error %q does not point at -clean", err)
			}
			// -clean drops the bad vote and proceeds.
			if err := runInfer([]string{"-plan", planPath, "-votes", votesPath, "-seed", "3", "-clean"}); err != nil {
				t.Errorf("-clean run failed: %v", err)
			}
		})
	}
}

func TestRunInferAcceptsCleanVotes(t *testing.T) {
	planPath, votesPath := writeFixtures(t, nil)
	if err := runInfer([]string{"-plan", planPath, "-votes", votesPath, "-seed", "3"}); err != nil {
		t.Fatalf("clean votes rejected: %v", err)
	}
}

func TestRunSimulateWithFaults(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	if err := runPlan([]string{"-n", "12", "-ratio", "0.5", "-seed", "1", "-out", planPath}); err != nil {
		t.Fatal(err)
	}
	votesPath := filepath.Join(dir, "votes.json")
	err := runSimulate([]string{"-plan", planPath, "-workers", "10", "-per-task", "3",
		"-dropout", "0.2", "-spam", "0.1", "-dup", "0.05", "-seed", "2", "-out", votesPath})
	if err != nil {
		t.Fatal(err)
	}
	var vf VotesFile
	if err := readJSON(votesPath, &vf); err != nil {
		t.Fatal(err)
	}
	if len(vf.Votes) == 0 {
		t.Fatal("no votes written")
	}
	// The raw faulty round must contain garbage for strict infer to reject.
	if err := crowdrank.ValidateVotes(vf.N, vf.Workers, vf.Votes); err == nil {
		t.Error("10% spam round passed validation; faults not injected?")
	}
	if err := runInfer([]string{"-plan", planPath, "-votes", votesPath, "-seed", "3"}); err == nil {
		t.Error("strict infer accepted spam votes")
	}
	if err := runInfer([]string{"-plan", planPath, "-votes", votesPath, "-seed", "3", "-clean"}); err != nil {
		t.Errorf("-clean infer failed: %v", err)
	}
}

func TestParseSearch(t *testing.T) {
	for _, name := range []string{"auto", "saps", "taps", "heldkarp", "bruteforce", "branchbound"} {
		alg, err := parseSearch(name)
		if err != nil || alg.String() != name {
			t.Errorf("parseSearch(%q) = %v, %v", name, alg, err)
		}
	}
	if _, err := parseSearch("annealing"); err == nil || err.Error() != `infer: unknown searcher "annealing"` {
		t.Errorf("unknown name: err = %v", err)
	}
}
