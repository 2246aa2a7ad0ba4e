package des

import (
	"container/heap"
	"fmt"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/faults"
	"crowdrank/internal/feq"
	"crowdrank/internal/graph"
	"crowdrank/internal/platform"
)

// CollectParams tunes the fault-tolerant collection of RunBatchFaulty: how
// long the requester waits for each posting wave, how many repair waves may
// follow, and how much money is reserved for them.
type CollectParams struct {
	// Deadline is the per-wave collection deadline measured from the wave's
	// posting time; answers arriving later are discarded and their slots
	// become repost candidates. 0 means wait forever (a single wave, no
	// reposts — stragglers only stretch the makespan).
	Deadline time.Duration
	// MaxReposts bounds how many repair waves follow the original posting;
	// 0 disables reposting.
	MaxReposts int
	// RepairBudget is the money reserved for repair waves, in the same
	// reward units as Reward. Each repost escrows pairs*Reward when posted;
	// slots that no longer fit stay lost. Negative means unlimited.
	RepairBudget float64
	// Reward is the payment per comparison per worker; 0 means 1 (the
	// simulator's unit reward).
	Reward float64
}

func (p CollectParams) validate() error {
	if p.Deadline < 0 {
		return fmt.Errorf("des: negative deadline %v", p.Deadline)
	}
	if p.MaxReposts < 0 {
		return fmt.Errorf("des: negative MaxReposts %d", p.MaxReposts)
	}
	if p.MaxReposts > 0 && p.Deadline == 0 {
		return fmt.Errorf("des: reposting requires a positive deadline (the requester must detect missing answers)")
	}
	return nil
}

func (p CollectParams) reward() float64 {
	if feq.Zero(p.Reward) {
		return 1
	}
	return p.Reward
}

// CollectStats quantifies one fault-tolerant collection round: what was
// planned, what arrived, what was lost to each failure mode, and what the
// repair waves recovered and cost. All answer counts are in comparisons
// (votes), not HITs.
type CollectStats struct {
	// PlannedAnswers = comparisons x workers-per-HIT of the original post.
	PlannedAnswers int
	// Delivered counts answers collected in time across all waves;
	// Repaired is the subset recovered by repair waves (wave >= 1).
	Delivered int
	Repaired  int
	// DroppedAttempts / LateAttempts / PartialLostPairs count per-attempt
	// losses: a slot that drops twice counts twice.
	DroppedAttempts  int
	LateAttempts     int
	PartialLostPairs int
	// MalformedVotes and DuplicateVotes count delivered-but-garbage
	// submissions (included in Votes; sanitization happens downstream).
	MalformedVotes int
	DuplicateVotes int
	// Reposts counts slots sent back to the marketplace; Waves counts
	// postings including the first.
	Reposts int
	Waves   int
	// Spent is the escrowed cost of the original posting; RepairSpent the
	// escrowed cost of reposts.
	Spent       float64
	RepairSpent float64
	// Makespan is the virtual time from first posting until the requester
	// stops waiting (last deadline used, or last answer when everything
	// arrived early).
	Makespan time.Duration
}

// Unrecovered returns the planned answers that never arrived.
func (s CollectStats) Unrecovered() int { return s.PlannedAnswers - s.Delivered }

// FaultyBatchResult is the outcome of RunBatchFaulty.
type FaultyBatchResult struct {
	// Votes holds every delivered submission in arrival order, including
	// malformed and duplicate ones — downstream sanitization is part of
	// what the fault layer exercises.
	Votes []crowd.Vote
	// WorkerAnswers counts delivered comparisons per worker.
	WorkerAnswers []int
	Stats         CollectStats
}

// slot is one (HIT, worker-assignment) unit of pending work. Reposts
// re-enqueue the slot (possibly with only the missing pairs) with a bumped
// attempt so the injector draws fresh outcomes.
type slot struct {
	hit        platform.HIT
	attempt    int
	lastWorker int // worker who failed the previous attempt (-1 initially)
}

// RunBatchFaulty posts every HIT to w distinct workers like RunBatch, but
// passes every assignment through the fault injector: assignments may be
// abandoned, straggle past the deadline, or come back partial, and
// delivered answers may be malformed or duplicated. At each deadline the
// requester reposts the missing slots (bounded by MaxReposts and
// RepairBudget) to the earliest-available workers, excluding the worker who
// just failed the slot. The returned votes are raw — malformed and
// duplicate submissions included — so the downstream sanitization path is
// exercised end to end.
func (m *Marketplace) RunBatchFaulty(hits []platform.HIT, w int, inj *faults.Injector, p CollectParams) (*FaultyBatchResult, error) {
	if inj == nil {
		return nil, fmt.Errorf("des: nil fault injector (use RunBatch for fault-free rounds)")
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	totalWorkers := m.oracle.Workers()
	if w < 1 || w > totalWorkers {
		return nil, fmt.Errorf("des: w=%d outside [1,%d]", w, totalWorkers)
	}

	postTime := m.clock
	reward := p.reward()
	stats := CollectStats{}
	answers := make([]int, totalWorkers)
	var votes []crowd.Vote

	// Original posting: w slots per HIT.
	var pending []slot
	for _, hit := range hits {
		stats.PlannedAnswers += len(hit.Pairs) * w
		for s := 0; s < w; s++ {
			pending = append(pending, slot{hit: hit, lastWorker: -1})
		}
	}
	stats.Spent = float64(stats.PlannedAnswers) * reward

	waveStart := postTime
	stragglerFactor := inj.StragglerFactor()
	// A worker answers each comparison at most once, across waves: workers
	// who already delivered a HIT must not receive its reposted slots.
	answeredByHIT := make(map[int][]int)
	for wave := 0; len(pending) > 0 && wave <= p.MaxReposts; wave++ {
		stats.Waves++
		// Within one wave the slots of one HIT must go to distinct workers;
		// the worker who failed the slot last wave is also excluded.
		pickedByHIT := make(map[int][]int)
		var events assignmentHeap
		type outcomeRec struct {
			slot    slot
			worker  int
			kept    int
			outcome faults.Outcome
			finish  time.Duration
			onTime  bool
		}
		var recs []outcomeRec
		recBySeq := make(map[int]int)
		seq := 0
		allOnTime := true

		for _, sl := range pending {
			exclude := append([]int(nil), pickedByHIT[sl.hit.ID]...)
			exclude = append(exclude, answeredByHIT[sl.hit.ID]...)
			if sl.lastWorker >= 0 {
				exclude = append(exclude, sl.lastWorker)
			}
			worker := m.pickWorker(exclude)
			pickedByHIT[sl.hit.ID] = append(pickedByHIT[sl.hit.ID], worker)

			outcome := inj.Outcome(sl.hit.ID, worker, sl.attempt)
			if outcome == faults.Dropped {
				// Claimed, never returned: the worker sits on it without
				// working, so their availability is unchanged.
				stats.DroppedAttempts += len(sl.hit.Pairs)
				recs = append(recs, outcomeRec{slot: sl, worker: worker, outcome: outcome})
				allOnTime = false
				continue
			}
			start := m.busyUntil[worker]
			if start < waveStart {
				start = waveStart
			}
			start += m.reactionTime()
			kept := inj.KeptPairs(sl.hit.ID, worker, sl.attempt, len(sl.hit.Pairs))
			finish := start
			for range sl.hit.Pairs[:kept] {
				service := m.serviceTime()
				if outcome == faults.Straggled {
					service = time.Duration(float64(service) * stragglerFactor)
				}
				finish += service
			}
			m.busyUntil[worker] = finish
			onTime := p.Deadline == 0 || finish <= waveStart+p.Deadline
			if !onTime {
				allOnTime = false
			}
			if kept < len(sl.hit.Pairs) {
				allOnTime = false
			}
			recs = append(recs, outcomeRec{
				slot: sl, worker: worker, kept: kept, outcome: outcome, finish: finish, onTime: onTime,
			})
			if onTime {
				recBySeq[seq] = len(recs) - 1
				heap.Push(&events, assignment{finish: finish, hit: sl.hit, worker: worker, seq: seq})
				seq++
			}
		}

		// Collect delivered answers in arrival order; the heap's seq keys
		// back into recs for the kept count.
		lastFinish := waveStart
		for events.Len() > 0 {
			ev := heap.Pop(&events).(assignment)
			r := recs[recBySeq[ev.seq]]
			answeredByHIT[ev.hit.ID] = append(answeredByHIT[ev.hit.ID], ev.worker)
			if ev.finish > lastFinish {
				lastFinish = ev.finish
			}
			for k, pr := range ev.hit.Pairs[:r.kept] {
				v := crowd.Vote{
					Worker:   ev.worker,
					I:        pr.I,
					J:        pr.J,
					PrefersI: m.oracle.Answer(ev.worker, pr.I, pr.J),
				}
				mangled, corrupted, duplicated := inj.Mangle(ev.hit.ID, ev.worker, r.slot.attempt, k, v)
				if corrupted {
					stats.MalformedVotes++
				}
				if duplicated {
					stats.DuplicateVotes += len(mangled) - 1
				}
				votes = append(votes, mangled...)
				answers[ev.worker]++
				stats.Delivered++
				if wave > 0 {
					stats.Repaired++
				}
			}
		}

		// Close the wave: early if everything arrived, at the deadline
		// otherwise (the requester must wait it out to detect the missing).
		waveEnd := lastFinish
		if p.Deadline > 0 && !allOnTime {
			waveEnd = waveStart + p.Deadline
		}
		if waveEnd > m.clock {
			m.clock = waveEnd
		}

		// Build the next wave's repost list from this wave's failures.
		var next []slot
		repairRemaining := p.RepairBudget - stats.RepairSpent
		for _, r := range recs {
			var missing []int // indices into r.slot.hit.Pairs still unanswered
			switch {
			case r.outcome == faults.Dropped:
				missing = allPairIndices(len(r.slot.hit.Pairs))
			case !r.onTime:
				stats.LateAttempts += len(r.slot.hit.Pairs)
				missing = allPairIndices(len(r.slot.hit.Pairs))
			case r.kept < len(r.slot.hit.Pairs):
				stats.PartialLostPairs += len(r.slot.hit.Pairs) - r.kept
				for k := r.kept; k < len(r.slot.hit.Pairs); k++ {
					missing = append(missing, k)
				}
			default:
				continue
			}
			if wave == p.MaxReposts {
				continue // no further waves; stays lost
			}
			cost := float64(len(missing)) * reward
			if p.RepairBudget >= 0 && cost > repairRemaining+1e-9 {
				continue // repair budget exhausted; stays lost
			}
			repairRemaining -= cost
			stats.RepairSpent += cost
			stats.Reposts++
			remainder := platform.HIT{ID: r.slot.hit.ID, Pairs: pairSubset(r.slot.hit.Pairs, missing)}
			next = append(next, slot{hit: remainder, attempt: r.slot.attempt + 1, lastWorker: r.worker})
		}
		pending = next
		waveStart = m.clock
	}

	stats.Makespan = m.clock - postTime
	return &FaultyBatchResult{Votes: votes, WorkerAnswers: answers, Stats: stats}, nil
}

// pickWorker returns the eligible worker who can start the earliest,
// breaking ties by shuffled order for fairness. exclude lists ineligible
// workers; when excluding everyone would leave nobody, the exclusion is
// ignored (a pool of one must serve).
func (m *Marketplace) pickWorker(exclude []int) int {
	banned := make(map[int]bool, len(exclude))
	for _, e := range exclude {
		banned[e] = true
	}
	total := m.oracle.Workers()
	if len(banned) >= total {
		banned = nil
	}
	order := m.rng.Perm(total)
	best := -1
	for _, k := range order {
		if banned[k] {
			continue
		}
		if best < 0 || m.busyUntil[k] < m.busyUntil[best] {
			best = k
		}
	}
	return best
}

func allPairIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func pairSubset(pairs []graph.Pair, idx []int) []graph.Pair {
	out := make([]graph.Pair, 0, len(idx))
	for _, k := range idx {
		out = append(out, pairs[k])
	}
	return out
}
