package serve

import "crowdrank/internal/crowd"

// dedupSet holds the daemon's dedup rule, the one lenient Infer applies
// via SanitizeVotes: a (worker, unordered pair, answer) submission counts
// once, whichever object order it names. Each worker owns a fixed bitset
// with one bit per (triangle slot, direction): bit 2·slot + prefersLow,
// where slot is the canonical pair's graph.Pair.Slot among the n(n-1)/2
// pairs. Membership is one shift and one mask instead of a hash and a map
// probe. A worker's bitset is allocated on that worker's first vote.
//
// The set is sized from the configured universe and trusts its callers:
// every vote it sees was validated against that universe first (by
// ingest, decodeBatchRecord or snapshot decoding).
type dedupSet struct {
	n     int
	words int        // uint64 words per worker: ⌈n(n-1)/64⌉
	bits  [][]uint64 // by worker; nil until the worker's first vote
}

func newDedupSet(n, m int) *dedupSet {
	return &dedupSet{n: n, words: (n*(n-1) + 63) / 64, bits: make([][]uint64, m)}
}

// add records v and reports whether it was new; false means the same
// worker already gave this answer on this pair, in either orientation.
func (d *dedupSet) add(v crowd.Vote) bool {
	bit := 2 * v.Pair().Slot(d.n)
	if v.PrefersI != (v.I > v.J) { // the answer prefers the lower index
		bit++
	}
	set := d.bits[v.Worker]
	if set == nil {
		set = make([]uint64, d.words)
		d.bits[v.Worker] = set
	}
	word, mask := &set[bit>>6], uint64(1)<<(bit&63)
	if *word&mask != 0 {
		return false
	}
	*word |= mask
	return true
}
