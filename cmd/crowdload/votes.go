package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"crowdrank"
	"crowdrank/internal/client"
	"crowdrank/internal/crowd"
)

// stream is one workload's vote supply: successive rounds of the paper's
// non-interactive collection, every round answered by the same simulated
// crowd about the same hidden ranking. One SimConfig.Seed fixes the truth
// and the crowd; each round draws a fresh task plan from the next plan
// seed, so later batches stay consistent with earlier ones and the
// served ranking's accuracy against the truth is meaningful.
type stream struct {
	truth  []int
	votes  []crowd.Vote
	rounds []int // end offset in votes of each round
}

// newStream draws rounds at the given task ratio until at least minVotes
// (>= 1) votes exist. The workload seed alone determines the result.
func newStream(n, m int, seed uint64, ratio float64, minVotes int) (*stream, error) {
	rng := rand.New(rand.NewPCG(seed, 0x63726f77646c6f61)) // "crowdloa"
	sim := crowdrank.DefaultSimConfig(rng.Uint64())
	sim.Workers = m
	planSeed := rng.Uint64()
	s := &stream{}
	for round := uint64(0); len(s.votes) < minVotes; round++ {
		plan, err := crowdrank.PlanTasksRatio(n, ratio, planSeed+round)
		if err != nil {
			return nil, fmt.Errorf("planning round %d: %w", round, err)
		}
		res, err := crowdrank.SimulateVotes(plan, sim)
		if err != nil {
			return nil, fmt.Errorf("simulating round %d: %w", round, err)
		}
		if s.truth == nil {
			s.truth = res.GroundTruth
		} else if !slices.Equal(s.truth, res.GroundTruth) {
			return nil, fmt.Errorf("round %d drew a different hidden truth", round)
		}
		for _, v := range res.Votes {
			s.votes = append(s.votes, crowd.Vote{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI})
		}
		s.rounds = append(s.rounds, len(s.votes))
	}
	return s, nil
}

// batches cuts count consecutive batches of size votes each, starting at
// vote from.
func (s *stream) batches(from, size, count int) ([][]crowd.Vote, error) {
	if end := from + size*count; end > len(s.votes) {
		return nil, fmt.Errorf("stream holds %d votes, %d batches of %d from %d need %d", len(s.votes), count, size, from, end)
	}
	out := make([][]crowd.Vote, count)
	for i := range out {
		out[i] = s.votes[from+i*size : from+(i+1)*size]
	}
	return out, nil
}

// submission is the daemon's dedup key for one vote: the same worker
// answering the same unordered pair the same way, whichever object order
// the vote names. It mirrors the rule the daemon applies at ingest.
type submission struct {
	worker     int
	lo, hi     int
	prefersLow bool
}

func submissionOf(v crowd.Vote) submission {
	lo, hi, prefersLow := v.I, v.J, v.PrefersI
	if lo > hi {
		lo, hi, prefersLow = hi, lo, !prefersLow
	}
	return submission{worker: v.Worker, lo: lo, hi: hi, prefersLow: prefersLow}
}

// ackedBatch is one acknowledged POST /votes: what was sent and what the
// daemon answered. Req is the request's span id (-1 for set-up traffic).
type ackedBatch struct {
	Req   int
	Votes []crowd.Vote
	Ack   client.Ack
}

// reconstruct rebuilds the daemon's deduplicated vote list from every
// batch it acknowledged, in journal order, and checks each ack's counts
// against the rebuild. A fresh daemon numbers batches 1, 2, ...; any gap
// means an acknowledged batch is missing from the harness's record.
func reconstruct(acked []ackedBatch) ([]crowd.Vote, error) {
	sorted := slices.Clone(acked)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Ack.Seq < sorted[b].Ack.Seq })
	seen := make(map[submission]bool)
	var votes []crowd.Vote
	for i, b := range sorted {
		if b.Ack.Seq != i+1 {
			return nil, fmt.Errorf("ack %d carries seq %d: batches are missing or repeated", i+1, b.Ack.Seq)
		}
		added, dups := 0, 0
		for _, v := range b.Votes {
			k := submissionOf(v)
			if seen[k] {
				dups++
				continue
			}
			seen[k] = true
			votes = append(votes, v)
			added++
		}
		if added != b.Ack.Accepted || dups != b.Ack.Duplicates || len(votes) != b.Ack.TotalVotes {
			return nil, fmt.Errorf("batch seq %d: rebuilt accepted=%d duplicates=%d total=%d, daemon acked accepted=%d duplicates=%d total=%d",
				b.Ack.Seq, added, dups, len(votes), b.Ack.Accepted, b.Ack.Duplicates, b.Ack.TotalVotes)
		}
	}
	return votes, nil
}
