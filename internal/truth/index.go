package truth

import (
	"fmt"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
)

// Index is the dense, append-only vote index Steps 1-3 run over. Each vote
// is validated once, on Add, and filed once, as an entry of one vote log
// in vote order: its pair id, its worker and its 0/1 value. Pairs get ids
// in first-seen order and are addressed by their slot in the n(n-1)/2
// upper triangle, so no step needs a map or a sort. Every per-pair and
// per-worker sum is one pass over the log, so each pair's and each
// worker's terms are added in vote order. An Index only grows: adding the
// votes that arrived since the last build and building again yields
// exactly what a fresh index fed every vote at once would.
//
// An Index is not safe for concurrent use.
type Index struct {
	n, m int
	// slot holds pair id + 1 per triangle slot (I < J); 0 until the
	// pair's first vote.
	slot  []int32
	pairs [][2]int32 // canonical (I, J) by pair id
	// log holds the votes in fixed-size chunks of chunkVotes entries, so
	// growth neither copies nor leaves slack past the last chunk.
	log    [][]entry
	counts []int // votes per worker, |T_k|
	votes  int
}

// entry is one filed vote: its pair id, and worker<<1 | the paper's vote
// value x^k_IJ with respect to the canonical pair.
type entry struct {
	pair uint32
	wv   uint32
}

// chunkVotes is the length of one log chunk (32 KiB).
const chunkVotes = 4096

// NewIndex returns an empty index over n objects and m workers.
func NewIndex(n, m int) (*Index, error) {
	if n < 2 {
		return nil, fmt.Errorf("truth: need at least two objects, got n=%d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("truth: need at least one worker, got m=%d", m)
	}
	return &Index{
		n:      n,
		m:      m,
		slot:   make([]int32, n*(n-1)/2),
		counts: make([]int, m),
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
func (x *Index) Pair(id int) graph.Pair {
	p := x.pairs[id]
	return graph.Pair{I: int(p[0]), J: int(p[1])}
}

// PairID returns the id of the pair (i, j) in either orientation, and
// false when no vote compared it.
func (x *Index) PairID(i, j int) (int, bool) {
	if i < 0 || j < 0 || i >= x.n || j >= x.n || i == j {
		return 0, false
	}
	id := x.slot[graph.Pair{I: i, J: j}.Canon().Slot(x.n)]
	return int(id) - 1, id > 0
}

// WorkerVotes returns |T_k|, the number of votes worker k cast.
func (x *Index) WorkerVotes(k int) int { return x.counts[k] }

// VotersOf returns, for each pair id in ids, the workers who voted on that
// pair, in vote order and with repeats; an id of -1 gets none. One
// counting pass over the log sizes every list, and the lists share one
// backing array; callers may modify them. Repeated ids get the same list.
func (x *Index) VotersOf(ids []int) [][]int32 {
	// at holds the position in ids + 1 of each requested pair id.
	at := make([]int32, len(x.pairs))
	for k, id := range ids {
		if id >= 0 && at[id] == 0 {
			at[id] = int32(k) + 1
		}
	}
	end := make([]int, len(ids)+1) // end[k+1]: votes on ids[k]
	for _, c := range x.log {
		for _, e := range c {
			end[at[e.pair]]++
		}
	}
	// Turn the counts into each list's start offset, then fill the lists.
	end[0] = 0
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	backing := make([]int32, end[len(ids)])
	for _, c := range x.log {
		for _, e := range c {
			if k := at[e.pair]; k > 0 {
				backing[end[k-1]] = int32(e.wv >> 1)
				end[k-1]++
			}
		}
	}
	voters := make([][]int32, len(ids))
	start := 0
	for k, id := range ids {
		switch first := int32(k) + 1; {
		case id < 0:
		case at[id] != first:
			voters[k] = voters[at[id]-1]
		default:
			voters[k] = backing[start:end[k]:end[k]]
			start = end[k]
		}
	}
	return voters
}

// Add validates votes and files them after those already held. Nothing is
// added when any vote is invalid.
func (x *Index) Add(votes []crowd.Vote) error {
	for i, v := range votes {
		if err := v.Validate(x.n, x.m); err != nil {
			return fmt.Errorf("truth: vote %d: %w", i, err)
		}
	}
	var buf [256]crowd.Packed
	for len(votes) > 0 {
		k := min(len(votes), len(buf))
		for i, v := range votes[:k] {
			buf[i] = crowd.Pack(v)
		}
		x.file(buf[:k])
		votes = votes[k:]
	}
	return nil
}

// AddPacked is Add for packed votes, the form crowdrankd keeps its votes
// in.
func (x *Index) AddPacked(votes []crowd.Packed) error {
	for i, p := range votes {
		if err := p.Vote().Validate(x.n, x.m); err != nil {
			return fmt.Errorf("truth: vote %d: %w", i, err)
		}
	}
	x.file(votes)
	return nil
}

// file appends valid votes to the log.
func (x *Index) file(votes []crowd.Packed) {
	for _, p := range votes {
		i, j, value := p.I, p.J, p.W&1
		if i > j {
			i, j, value = j, i, value^1
		}
		s := graph.Pair{I: int(i), J: int(j)}.Slot(x.n)
		id := x.slot[s] - 1
		if id < 0 {
			id = int32(len(x.pairs))
			x.slot[s] = id + 1
			x.pairs = append(x.pairs, [2]int32{int32(i), int32(j)})
		}
		if len(x.log) == 0 || len(x.log[len(x.log)-1]) == chunkVotes {
			x.log = append(x.log, make([]entry, 0, chunkVotes))
		}
		c := &x.log[len(x.log)-1]
		*c = append(*c, entry{pair: uint32(id), wv: p.W&^1 | value})
		x.counts[p.W>>1]++
	}
	x.votes += len(votes)
}
