package serve

import (
	"fmt"

	"crowdrank/internal/crowd"
	"crowdrank/internal/snapshot"
)

// voteState is the daemon's vote-state machine: the deduplicated votes,
// the batch idempotency window, and the counters a snapshot carries. Live
// ingest, replicated records (both via Server.commit), recovery replay and
// snapshot recovery all build it through apply and seed, so equal records
// give equal states. It holds no locks and does no I/O; the Server guards
// it with mu and owns every side effect.
type voteState struct {
	n, m   int
	window int // IdempotencyWindow; <= 0 keeps no acks

	votes    []crowd.Packed          // append-only
	seen     *dedupSet               // every submission in votes
	acks     map[string]IngestResult // the keyed acks of the window
	ackOrder []string                // FIFO eviction order for acks
	gen      uint64                  // bumped whenever votes change; keys the per-generation cache
	batches  int                     // records applied: the journal sequence the state covers
	dupVotes int                     // exact duplicate submissions suppressed by apply
}

func newVoteState(n, m, window int) *voteState {
	return &voteState{n: n, m: m, window: window, seen: newDedupSet(n, m), acks: make(map[string]IngestResult)}
}

// apply folds one batch record into the state, suppressing exact
// duplicate submissions, and returns the batch's ack, which the window
// remembers when the record is keyed. A record with no votes still counts
// as a batch but leaves the generation alone.
func (v *voteState) apply(rec batchRecord) IngestResult {
	res := IngestResult{Malformed: rec.malformed}
	for _, vote := range rec.votes {
		if !v.seen.add(vote) {
			res.Duplicates++
			continue
		}
		v.votes = append(v.votes, vote)
		res.Accepted++
	}
	v.batches++
	v.dupVotes += res.Duplicates
	if res.Accepted > 0 {
		v.gen++
	}
	res.Seq, res.TotalVotes = v.batches, len(v.votes)
	if rec.key != "" {
		v.recordAck(rec.key, res)
	}
	return res
}

// recordAck remembers one batch ack under its idempotency key, evicting
// the oldest entries beyond the window.
func (v *voteState) recordAck(key string, res IngestResult) {
	if v.window <= 0 {
		return
	}
	if _, ok := v.acks[key]; ok {
		return
	}
	v.acks[key] = res
	v.ackOrder = append(v.ackOrder, key)
	for len(v.ackOrder) > v.window {
		delete(v.acks, v.ackOrder[0])
		v.ackOrder = v.ackOrder[1:]
	}
}

// seed resets the state to exactly what st captured (the zero Image
// resets to empty). The dedup set is recomputed from the votes; a
// collision means no apply could have produced st, so seed refuses it and
// leaves the state untouched. The set is sized from the configured
// universe, never from st: the zero Image of a full replay carries N=0.
// Each worker's dedup form is picked from its vote count in st and in
// then, the records the caller applies next (recovery's journal suffix),
// so neither seeding nor that replay switches a worker's form.
func (v *voteState) seed(st snapshot.Image, then []batchRecord) error {
	counts := make([]int32, v.m)
	for _, p := range st.Votes {
		counts[p.W>>1]++
	}
	for _, rec := range then {
		for _, p := range rec.votes {
			counts[p.W>>1]++
		}
	}
	seen := newDedupSet(v.n, v.m)
	seen.reserve(counts)
	for _, p := range st.Votes {
		if !seen.add(p) {
			return fmt.Errorf("duplicate submission %+v in snapshot", p.Vote())
		}
	}
	*v = voteState{
		n: v.n, m: v.m, window: v.window,
		votes: st.Votes, seen: seen, acks: make(map[string]IngestResult, len(st.Acks)),
		gen: st.Gen, batches: int(st.Seq), dupVotes: st.DupVotes,
	}
	// Restore the window oldest first, preserving eviction order, so batch
	// retries straddling a restart still replay their original ack.
	for _, a := range st.Acks {
		v.recordAck(a.Key, IngestResult{
			Accepted:   a.Accepted,
			Duplicates: a.Duplicates,
			Malformed:  a.Malformed,
			Seq:        a.Seq,
			TotalVotes: a.TotalVotes,
		})
	}
	return nil
}

// cut returns the state as a snapshot.Image covering journal sequence
// batches. The vote slice is append-only, so its three-index slice stays
// immutable after the caller's lock drops.
func (v *voteState) cut() snapshot.Image {
	st := snapshot.Image{
		N:        v.n,
		M:        v.m,
		Seq:      uint64(v.batches),
		Gen:      v.gen,
		DupVotes: v.dupVotes,
		Votes:    v.votes[:len(v.votes):len(v.votes)],
		Acks:     make([]snapshot.AckEntry, 0, len(v.ackOrder)),
	}
	for _, key := range v.ackOrder {
		res := v.acks[key]
		st.Acks = append(st.Acks, snapshot.AckEntry{
			Key:        key,
			Accepted:   res.Accepted,
			Duplicates: res.Duplicates,
			Malformed:  res.Malformed,
			Seq:        res.Seq,
			TotalVotes: res.TotalVotes,
		})
	}
	return st
}
