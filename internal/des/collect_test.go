package des

import (
	"math/rand/v2"
	"testing"
	"time"

	"crowdrank/internal/faults"
	"crowdrank/internal/graph"
	"crowdrank/internal/platform"
	"crowdrank/internal/simulate"
)

// newFaultyMarket builds a marketplace plus HITs over n objects for
// collection tests.
func newFaultyMarket(t *testing.T, n, pool int, perHIT int, seed uint64) (*Marketplace, []platform.HIT) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	truth, err := simulate.GroundTruth(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	crowdPool, err := simulate.NewCrowd(pool, simulate.Gaussian, simulate.MediumQuality, rng)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := simulate.NewGroundTruthOracle(crowdPool, truth, rng)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []graph.Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, graph.Pair{I: i, J: j})
		}
	}
	hits, err := platform.PackHITs(pairs, perHIT)
	if err != nil {
		t.Fatal(err)
	}
	market, err := New(oracle, DefaultWorkerModel(), rand.New(rand.NewPCG(seed, 77)))
	if err != nil {
		t.Fatal(err)
	}
	return market, hits
}

func TestRunBatchFaultyZeroProfileDeliversEverything(t *testing.T) {
	market, hits := newFaultyMarket(t, 8, 10, 1, 1)
	inj, err := faults.NewInjector(faults.Profile{Seed: 5}, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := market.RunBatchFaulty(hits, 3, inj, CollectParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != res.Stats.PlannedAnswers {
		t.Errorf("zero profile delivered %d of %d", res.Stats.Delivered, res.Stats.PlannedAnswers)
	}
	if len(res.Votes) != res.Stats.PlannedAnswers {
		t.Errorf("votes %d != planned %d", len(res.Votes), res.Stats.PlannedAnswers)
	}
	if res.Stats.Reposts != 0 || res.Stats.Repaired != 0 || res.Stats.Waves != 1 {
		t.Errorf("zero profile triggered repair: %+v", res.Stats)
	}
	if res.Stats.Makespan <= 0 {
		t.Error("makespan should be positive")
	}
}

func TestRunBatchFaultyDropoutAndRepair(t *testing.T) {
	profile := faults.Profile{Dropout: 0.3, Seed: 11}
	params := CollectParams{Deadline: 30 * time.Minute, MaxReposts: 2, RepairBudget: -1}

	market, hits := newFaultyMarket(t, 10, 12, 1, 2)
	inj, err := faults.NewInjector(profile, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := market.RunBatchFaulty(hits, 4, inj, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DroppedAttempts == 0 {
		t.Fatal("30% dropout produced no dropped attempts")
	}
	if res.Stats.Repaired == 0 || res.Stats.Reposts == 0 {
		t.Errorf("repair waves recovered nothing: %+v", res.Stats)
	}
	if res.Stats.Delivered <= res.Stats.PlannedAnswers/2 {
		t.Errorf("delivered %d of %d despite repair", res.Stats.Delivered, res.Stats.PlannedAnswers)
	}
	if res.Stats.RepairSpent <= 0 {
		t.Error("repair should cost money")
	}
	if res.Stats.Waves < 2 {
		t.Errorf("expected repair waves, got %d", res.Stats.Waves)
	}

	// Same seeds reproduce the identical collection, vote for vote.
	market2, hits2 := newFaultyMarket(t, 10, 12, 1, 2)
	inj2, err := faults.NewInjector(profile, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := market2.RunBatchFaulty(hits2, 4, inj2, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != res2.Stats {
		t.Errorf("stats not reproducible:\n%+v\n%+v", res.Stats, res2.Stats)
	}
	if len(res.Votes) != len(res2.Votes) {
		t.Fatalf("vote counts differ: %d vs %d", len(res.Votes), len(res2.Votes))
	}
	for i := range res.Votes {
		if res.Votes[i] != res2.Votes[i] {
			t.Fatalf("vote %d differs: %+v vs %+v", i, res.Votes[i], res2.Votes[i])
		}
	}
}

func TestRunBatchFaultyNoRepostsWithoutBudget(t *testing.T) {
	market, hits := newFaultyMarket(t, 10, 12, 1, 3)
	inj, err := faults.NewInjector(faults.Profile{Dropout: 0.4, Seed: 9}, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := market.RunBatchFaulty(hits, 4, inj, CollectParams{
		Deadline: 30 * time.Minute, MaxReposts: 3, RepairBudget: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Reposts != 0 || res.Stats.RepairSpent != 0 {
		t.Errorf("zero repair budget still reposted: %+v", res.Stats)
	}
	if res.Stats.Unrecovered() == 0 {
		t.Error("40% dropout with no repair should lose answers")
	}
}

func TestRunBatchFaultyPartialAndGarbage(t *testing.T) {
	market, hits := newFaultyMarket(t, 12, 10, 4, 4)
	inj, err := faults.NewInjector(faults.Profile{
		Partial: 0.5, Malformed: 0.1, Duplicate: 0.1, Seed: 21,
	}, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := market.RunBatchFaulty(hits, 3, inj, CollectParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PartialLostPairs == 0 {
		t.Error("50% partial on 4-pair HITs lost nothing")
	}
	if res.Stats.MalformedVotes == 0 || res.Stats.DuplicateVotes == 0 {
		t.Errorf("garbage rates produced none: %+v", res.Stats)
	}
	// Raw votes include the garbage: delivered + duplicates.
	if len(res.Votes) != res.Stats.Delivered+res.Stats.DuplicateVotes {
		t.Errorf("votes %d, delivered %d + dup %d", len(res.Votes), res.Stats.Delivered, res.Stats.DuplicateVotes)
	}
}

func TestRunBatchFaultyStragglersMissDeadline(t *testing.T) {
	market, hits := newFaultyMarket(t, 10, 10, 1, 6)
	inj, err := faults.NewInjector(faults.Profile{Straggler: 0.4, StragglerFactor: 50, Seed: 8}, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Tight deadline: straggled answers (50x service time) cannot make it.
	res, err := market.RunBatchFaulty(hits, 3, inj, CollectParams{Deadline: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LateAttempts == 0 {
		t.Error("stragglers under a tight deadline should be late")
	}
	if res.Stats.Delivered+res.Stats.Unrecovered() != res.Stats.PlannedAnswers {
		t.Errorf("accounting mismatch: %+v", res.Stats)
	}
}

func TestRunBatchFaultyValidation(t *testing.T) {
	market, hits := newFaultyMarket(t, 6, 8, 1, 7)
	inj, err := faults.NewInjector(faults.Profile{}, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := market.RunBatchFaulty(hits, 3, nil, CollectParams{}); err == nil {
		t.Error("nil injector should be rejected")
	}
	if _, err := market.RunBatchFaulty(hits, 0, inj, CollectParams{}); err == nil {
		t.Error("w=0 should be rejected")
	}
	if _, err := market.RunBatchFaulty(hits, 3, inj, CollectParams{MaxReposts: 1}); err == nil {
		t.Error("reposts without a deadline should be rejected")
	}
	if _, err := market.RunBatchFaulty(hits, 3, inj, CollectParams{Deadline: -time.Second}); err == nil {
		t.Error("negative deadline should be rejected")
	}
}

func TestCollectStatsHelpers(t *testing.T) {
	s := CollectStats{PlannedAnswers: 100, Delivered: 80}
	if got := s.Unrecovered(); got != 20 {
		t.Errorf("Unrecovered = %d", got)
	}
}
