package serve

import (
	"math/bits"

	"crowdrank/internal/crowd"
)

// dedupSet holds the daemon's dedup rule, the one lenient Infer applies
// via SanitizeVotes: a (worker, unordered pair, answer) submission counts
// once, whichever object order it names. A submission is the bit id
// 2·slot + prefersLow, where slot is the canonical pair's graph.Pair.Slot
// among the n(n-1)/2 pairs.
//
// Each worker's ids live in one of two forms. A worker starts sparse: an
// open-addressing table of uint32 ids, about 8 bytes per id. Once it holds
// more than limit = n(n-1)/64 ids, the point past which a dense bitset of
// n(n-1) bits is smaller, it switches to that bitset for good, where
// membership is one shift and one mask. So the set costs O(votes), not
// O(voting workers · n²), and a worker who never votes costs only its
// empty entry.
//
// The set is sized from the configured universe and trusts its callers:
// every vote it sees was validated against that universe first (by
// ingest, decodeBatchRecord or snapshot decoding).
type dedupSet struct {
	n     int
	words int         // dense bitset words: ⌈n(n-1)/64⌉
	limit int         // ids a sparse worker may hold
	sets  []workerSet // by worker
}

// workerSet is one worker's submissions: table while sparse, dense after
// the switch, both nil before the worker's first vote.
type workerSet struct {
	// table holds id+1 per slot, 0 marking an empty one; its length is a
	// power of two, at most 3/4 full.
	table []uint32
	ids   int // ids in table
	dense []uint64
}

// minTable is the length of a sparse worker's first table.
const minTable = 8

func newDedupSet(n, m int) *dedupSet {
	limit := n * (n - 1) / 64
	if uint64(n)*uint64(n-1) > 1<<32-1 {
		limit = 0 // ids would not fit a uint32: every worker is dense
	}
	return &dedupSet{n: n, words: (n*(n-1) + 63) / 64, limit: limit, sets: make([]workerSet, m)}
}

// reserve picks, on a fresh set, each worker's form for the votes about
// to be added, counts[w] of them by worker w: dense for a worker who will
// hold more than limit ids, otherwise a table big enough for all of them.
// A count that includes repeats only overestimates, so no worker switches
// form while those votes are added.
func (d *dedupSet) reserve(counts []int32) {
	for w, c := range counts {
		ws := &d.sets[w]
		switch {
		case c == 0:
		case int(c) > d.limit:
			ws.dense = make([]uint64, d.words)
		default:
			ws.table = make([]uint32, tableFor(int(c)))
		}
	}
}

// tableFor returns the table length that holds ids at most 3/4 full.
func tableFor(ids int) int {
	return max(minTable, 1<<bits.Len(uint(ids*4/3)))
}

// add records p and reports whether it was new; false means the same
// worker already gave this answer on this pair, in either orientation.
func (d *dedupSet) add(p crowd.Packed) bool {
	id := d.id(p)
	if set := d.sets[p.W>>1].dense; set != nil {
		return setBit(set, id)
	}
	return d.addSparse(&d.sets[p.W>>1], id)
}

// id returns p's bit id, 2·slot + prefersLow.
func (d *dedupSet) id(p crowd.Packed) int {
	i, j, low := uint(p.I), uint(p.J), uint(p.W&1)
	if i > j {
		i, j, low = j, i, low^1
	}
	return int(2*(i*(2*uint(d.n)-i-1)/2+j-i-1) + low)
}

// setBit sets bit id of set and reports whether it was clear.
func setBit(set []uint64, id int) bool {
	word, mask := &set[id>>6], uint64(1)<<(id&63)
	if *word&mask != 0 {
		return false
	}
	*word |= mask
	return true
}

// addSparse is add for a worker without a bitset. The id that takes the
// worker past limit moves it to the bitset instead; with a limit of 0
// that is its first id.
func (d *dedupSet) addSparse(ws *workerSet, id int) bool {
	if d.limit == 0 {
		ws.dense = make([]uint64, d.words)
		return setBit(ws.dense, id)
	}
	if ws.table == nil {
		ws.table = make([]uint32, minTable)
	}
	slot := probe(ws.table, uint32(id))
	if ws.table[slot] != 0 {
		return false
	}
	switch {
	case ws.ids+1 > d.limit:
		ws.dense = make([]uint64, d.words)
		for _, e := range ws.table {
			if e != 0 {
				setBit(ws.dense, int(e-1))
			}
		}
		ws.table, ws.ids = nil, 0
		return setBit(ws.dense, id)
	case (ws.ids+1)*4 > len(ws.table)*3:
		old := ws.table
		ws.table = make([]uint32, 2*len(old))
		for _, e := range old {
			if e != 0 {
				ws.table[probe(ws.table, e-1)] = e
			}
		}
		slot = probe(ws.table, uint32(id))
	}
	ws.table[slot] = uint32(id) + 1
	ws.ids++
	return true
}

// probe returns the slot of table that holds id, or else the empty slot
// where it belongs: Fibonacci hashing, then linear probing.
func probe(table []uint32, id uint32) int {
	mask := len(table) - 1
	slot := int((id*0x9e3779b9)>>(32-bits.TrailingZeros(uint(len(table))))) & mask
	for table[slot] != 0 && table[slot] != id+1 {
		slot = (slot + 1) & mask
	}
	return slot
}
