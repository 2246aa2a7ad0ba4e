package crowdrank

import (
	"fmt"
	"time"

	"crowdrank/internal/des"
	"crowdrank/internal/faults"
	"crowdrank/internal/feq"
)

// FaultConfig selects the unreliable-marketplace failure modes injected
// into a simulated round. All rates are independent probabilities in
// [0, 1]; the zero value injects nothing. Faults are deterministic in Seed,
// so a fixed (SimConfig.Seed, FaultConfig.Seed) pair reproduces the round
// exactly, faults and all.
type FaultConfig struct {
	// DropoutRate is the probability a (HIT, worker) assignment is claimed
	// but never returned.
	DropoutRate float64
	// StragglerRate is the probability an assignment takes StragglerFactor
	// times its normal service time — usually past the collection deadline.
	StragglerRate float64
	// StragglerFactor multiplies straggler service time; <= 1 means the
	// default of 8.
	StragglerFactor float64
	// PartialRate is the probability a multi-comparison HIT comes back
	// with only a prefix of its answers.
	PartialRate float64
	// DuplicateRate is the probability a delivered answer is submitted
	// twice.
	DuplicateRate float64
	// SpamRate is the probability a delivered answer is malformed garbage:
	// an out-of-range object id, a self-pair, or an out-of-range worker id.
	SpamRate float64
	// Seed drives every fault decision.
	Seed uint64
}

// Zero reports whether no faults are injected at all.
func (f FaultConfig) Zero() bool {
	return feq.Zero(f.DropoutRate) && feq.Zero(f.StragglerRate) && feq.Zero(f.PartialRate) &&
		feq.Zero(f.DuplicateRate) && feq.Zero(f.SpamRate)
}

func (f FaultConfig) profile() faults.Profile {
	return faults.Profile{
		Dropout:         f.DropoutRate,
		Straggler:       f.StragglerRate,
		StragglerFactor: f.StragglerFactor,
		Partial:         f.PartialRate,
		Duplicate:       f.DuplicateRate,
		Malformed:       f.SpamRate,
		Seed:            f.Seed,
	}
}

// CollectConfig tunes the fault-tolerant collection protocol: how long the
// requester waits before declaring answers missing, how many repair waves
// may follow, and how much budget slack is reserved for them.
type CollectConfig struct {
	// Deadline is the per-wave collection deadline; answers arriving later
	// are discarded. 0 means wait forever (no reposts possible).
	Deadline time.Duration
	// MaxReposts bounds the repair waves after the original posting; 0
	// disables reposting.
	MaxReposts int
	// BudgetSlack is the fraction of the round's base cost reserved for
	// repair reposts (0.25 reserves a quarter of the base budget).
	// Negative means unlimited repair money; 0 means no repair budget.
	BudgetSlack float64
}

// DefaultCollectConfig waits 30 simulated minutes per wave, allows two
// repair waves, and reserves a quarter of the base budget for them.
func DefaultCollectConfig() CollectConfig {
	return CollectConfig{
		Deadline:    30 * time.Minute,
		MaxReposts:  2,
		BudgetSlack: 0.25,
	}
}

// CollectionReport quantifies one fault-tolerant collection round: what was
// planned, what arrived (and when), what each failure mode cost, what the
// repair waves recovered, and how much of the task graph G_T survived. All
// vote counts are in comparisons.
type CollectionReport struct {
	// PlannedVotes = comparisons x workers-per-task of the original post.
	PlannedVotes int
	// Delivered counts answers that arrived in time (including repairs);
	// Repaired is the subset recovered by repost waves; Lost is what never
	// arrived.
	Delivered int
	Repaired  int
	Lost      int
	// LostToDropout / LostLate / LostPartial break losses down by failure
	// mode, counted per attempt.
	LostToDropout int
	LostLate      int
	LostPartial   int
	// Malformed and Duplicates count delivered-but-garbage submissions
	// (present in the returned votes; sanitization handles them later).
	Malformed  int
	Duplicates int
	// Reposts counts repair postings; Waves counts postings including the
	// first.
	Reposts int
	Waves   int
	// Spent is the escrowed base cost; RepairSpent the escrowed repair
	// cost (both at reward 1 per comparison per worker, like SimRound).
	Spent       float64
	RepairSpent float64
	// Makespan is the virtual marketplace time from posting until the
	// requester stopped waiting.
	Makespan time.Duration
	// ResidualCoverage is the fraction of the plan's task pairs that ended
	// up with at least one valid delivered vote; UncoveredPairs lists the
	// task-graph edges that lost all their answers.
	ResidualCoverage float64
	UncoveredPairs   []Pair
}

// String renders the report compactly for logs and CLI output.
func (r CollectionReport) String() string {
	return fmt.Sprintf(
		"delivered %d of %d planned votes (%d repaired in %d reposts, %d lost: %d dropout / %d late / %d partial), "+
			"%d malformed, %d duplicate; coverage %.3f (%d pairs uncovered); spent %.0f + %.0f repair; makespan %v",
		r.Delivered, r.PlannedVotes, r.Repaired, r.Reposts, r.Lost,
		r.LostToDropout, r.LostLate, r.LostPartial,
		r.Malformed, r.Duplicates, r.ResidualCoverage, len(r.UncoveredPairs),
		r.Spent, r.RepairSpent, r.Makespan.Round(time.Second))
}

// SimulateUnreliableVotes runs one simulated non-interactive round like
// SimulateVotes, but through an unreliable marketplace: every assignment
// passes the fault injector (dropout, stragglers, partial completion,
// duplicates, spam) and collection follows the fault-tolerant protocol of
// cc — per-wave deadlines with bounded reposting from reserved budget
// slack, on the deterministic discrete-event marketplace of internal/des.
//
// The returned votes are raw: malformed and duplicate submissions are
// included, exactly as an unreliable crowd would deliver them. Feed them to
// Infer (lenient by default) or clean them first with SanitizeVotes; the
// CollectionReport quantifies what was lost and what share of the task
// graph survived. cfg.BalancedAssignment is ignored — the marketplace
// assigns each HIT to the earliest-available workers.
func SimulateUnreliableVotes(plan *Plan, cfg SimConfig, fc FaultConfig, cc CollectConfig) (*SimRound, *CollectionReport, error) {
	sim, err := newSimulation(plan, cfg)
	if err != nil {
		return nil, nil, err
	}
	inj, err := faults.NewInjector(fc.profile(), plan.N, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	market, err := des.New(sim.oracle, des.DefaultWorkerModel(), sim.rng)
	if err != nil {
		return nil, nil, err
	}

	plannedAnswers := len(plan.Pairs) * cfg.WorkersPerTask
	repairBudget := cc.BudgetSlack * float64(plannedAnswers)
	if cc.BudgetSlack < 0 {
		repairBudget = -1
	}
	res, err := market.RunBatchFaulty(sim.hits, cfg.WorkersPerTask, inj, des.CollectParams{
		Deadline:     cc.Deadline,
		MaxReposts:   cc.MaxReposts,
		RepairBudget: repairBudget,
		Reward:       1,
	})
	if err != nil {
		return nil, nil, err
	}

	report := &CollectionReport{
		PlannedVotes:  res.Stats.PlannedAnswers,
		Delivered:     res.Stats.Delivered,
		Repaired:      res.Stats.Repaired,
		Lost:          res.Stats.Unrecovered(),
		LostToDropout: res.Stats.DroppedAttempts,
		LostLate:      res.Stats.LateAttempts,
		LostPartial:   res.Stats.PartialLostPairs,
		Malformed:     res.Stats.MalformedVotes,
		Duplicates:    res.Stats.DuplicateVotes,
		Reposts:       res.Stats.Reposts,
		Waves:         res.Stats.Waves,
		Spent:         res.Stats.Spent,
		RepairSpent:   res.Stats.RepairSpent,
		Makespan:      res.Stats.Makespan,
	}
	report.ResidualCoverage, report.UncoveredPairs = residualCoverage(plan, res.Votes, cfg.Workers)
	return sim.round(res.Votes, res.Stats.Spent+res.Stats.RepairSpent), report, nil
}

// residualCoverage measures how much of the plan's task graph survived
// collection: the fraction of planned pairs with at least one valid
// delivered vote, and the pairs that lost everything.
func residualCoverage(plan *Plan, votes []Vote, workers int) (float64, []Pair) {
	valid, _ := SanitizeVotes(plan.N, workers, votes)
	have := make(map[Pair]bool, len(valid))
	for _, v := range valid {
		have[v.Pair()] = true
	}
	var uncovered []Pair
	covered := 0
	for _, pr := range plan.Pairs {
		if have[pr] {
			covered++
		} else {
			uncovered = append(uncovered, pr)
		}
	}
	if len(plan.Pairs) == 0 {
		return 1, nil
	}
	return float64(covered) / float64(len(plan.Pairs)), uncovered
}
