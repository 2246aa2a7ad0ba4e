package truth

import (
	"fmt"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
)

// Index is the dense, append-only vote index Steps 1-3 run over. Each vote
// is validated once, on Add, and filed twice, both times in vote order:
// under its canonical pair and under its worker. Pairs get ids in
// first-seen order and are addressed by their slot in the n(n-1)/2
// upper triangle, so no step needs a map or a sort. An Index only grows:
// adding the votes that arrived since the last build and building again
// yields exactly what a fresh index fed every vote at once would.
//
// An Index is not safe for concurrent use.
type Index struct {
	n, m int
	// slot holds pair id + 1 per triangle slot (I < J); 0 until the
	// pair's first vote.
	slot  []int32
	pairs []pairVotes // by pair id
	// byWorker files each worker's votes: the pair id and the vote value.
	byWorker []workerVotes
	votes    int
}

// pairVotes is one compared pair and its votes: the voters and the
// paper's 0/1 vote values x^k_IJ, at the same offsets.
type pairVotes struct {
	pair    graph.Pair
	workers []int32
	values  []uint8
}

// workerVotes is one worker's votes: the pair ids and the vote values, at
// the same offsets.
type workerVotes struct {
	pairs  []int32
	values []uint8
}

// NewIndex returns an empty index over n objects and m workers.
func NewIndex(n, m int) (*Index, error) {
	if n < 2 {
		return nil, fmt.Errorf("truth: need at least two objects, got n=%d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("truth: need at least one worker, got m=%d", m)
	}
	return &Index{
		n:        n,
		m:        m,
		slot:     make([]int32, n*(n-1)/2),
		byWorker: make([]workerVotes, m),
	}, nil
}

// N returns the number of objects.
func (x *Index) N() int { return x.n }

// M returns the number of workers.
func (x *Index) M() int { return x.m }

// Len returns the number of votes added so far.
func (x *Index) Len() int { return x.votes }

// Pairs returns the number of distinct pairs voted on; pair ids run from
// 0 to Pairs()-1.
func (x *Index) Pairs() int { return len(x.pairs) }

// Pair returns the canonical pair (I < J) with the given id.
func (x *Index) Pair(id int) graph.Pair { return x.pairs[id].pair }

// PairID returns the id of the pair (i, j) in either orientation, and
// false when no vote compared it.
func (x *Index) PairID(i, j int) (int, bool) {
	if i < 0 || j < 0 || i >= x.n || j >= x.n || i == j {
		return 0, false
	}
	id := x.slot[graph.Pair{I: i, J: j}.Canon().Slot(x.n)]
	return int(id) - 1, id > 0
}

// Voters returns the workers who voted on the pair (i, j), in vote order
// and with repeats, or nil when none did. The slice is shared with the
// index; callers must not modify it.
func (x *Index) Voters(i, j int) []int32 {
	id, ok := x.PairID(i, j)
	if !ok {
		return nil
	}
	return x.pairs[id].workers
}

// Add validates votes and files them after those already held. Nothing is
// added when any vote is invalid.
func (x *Index) Add(votes []crowd.Vote) error {
	for i, v := range votes {
		if err := v.Validate(x.n, x.m); err != nil {
			return fmt.Errorf("truth: vote %d: %w", i, err)
		}
	}
	for _, v := range votes {
		p := v.Pair()
		s := p.Slot(x.n)
		id := x.slot[s] - 1
		if id < 0 {
			id = int32(len(x.pairs))
			x.slot[s] = id + 1
			x.pairs = append(x.pairs, pairVotes{pair: p})
		}
		value := uint8(v.Value())
		pv := &x.pairs[id]
		pv.workers = append(pv.workers, int32(v.Worker))
		pv.values = append(pv.values, value)
		wv := &x.byWorker[v.Worker]
		wv.pairs = append(wv.pairs, id)
		wv.values = append(wv.values, value)
	}
	x.votes += len(votes)
	return nil
}
