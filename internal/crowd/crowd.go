// Package crowd defines the shared vocabulary between the crowdsourcing
// platform, the simulator, the truth-discovery step, and the baselines: a
// Vote is one worker's answer to one pairwise comparison task.
package crowd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"crowdrank/internal/graph"
)

// Vote records that worker Worker compared objects I and J and preferred I
// (PrefersI true means O_I ≺ O_J, i.e. I should rank before J).
type Vote struct {
	Worker   int
	I, J     int
	PrefersI bool
}

// Packed is a Vote in 12 bytes, the form crowdrankd keeps its votes in:
// W is worker<<1 | prefersI, and I, J are the objects in the order the
// vote named them, so Vote gives back the submitted vote exactly. Ids must
// lie in [0, 2^31), the id space the binary codecs accept.
type Packed struct {
	W, I, J uint32
}

// Pack returns v's packed form.
func Pack(v Vote) Packed {
	w := uint32(v.Worker) << 1
	if v.PrefersI {
		w |= 1
	}
	return Packed{W: w, I: uint32(v.I), J: uint32(v.J)}
}

// Vote returns the vote p packs.
func (p Packed) Vote() Vote {
	return Vote{Worker: int(p.W >> 1), I: int(p.I), J: int(p.J), PrefersI: p.W&1 == 1}
}

// Batch gathers one ingest batch vote by vote, the way crowdrankd admits
// votes: Add checks each vote with Classify and keeps it Packed when it is
// well formed, or counts it in Malformed. Past Max votes it only counts,
// so an oversized batch costs no memory and still reports its length.
type Batch struct {
	// N and M are the object and worker universes, Max the vote cap.
	N, M, Max int
	// Votes holds the well-formed votes among the first Max, in order,
	// and Malformed counts the others among them.
	Votes     []Packed
	Malformed int
	// Len counts every vote added.
	Len int
}

// Add files one vote.
func (b *Batch) Add(v Vote) {
	b.Len++
	if b.Len > b.Max {
		return
	}
	if Classify(v, b.N, b.M) != DefectNone {
		b.Malformed++
		return
	}
	b.Votes = append(grow(b.Votes, b.Max), Pack(v))
}

// reset empties b, keeping its universes, cap and vote capacity.
func (b *Batch) reset() {
	b.Votes, b.Malformed, b.Len = b.Votes[:0], 0, 0
}

// Pair returns the canonical pair this vote answers.
func (v Vote) Pair() graph.Pair { return graph.Pair{I: v.I, J: v.J}.Canon() }

// Submission identifies one (worker, pair, answer) submission. A vote and
// its re-submission with the objects swapped have the same Submission, so
// it keys exact-duplicate detection.
type Submission struct {
	Worker     int
	Pair       graph.Pair
	PrefersLow bool
}

// Submission returns the submission v makes: its worker, its canonical
// pair, and whether it prefers the pair's lower-indexed object.
func (v Vote) Submission() Submission {
	return Submission{Worker: v.Worker, Pair: v.Pair(), PrefersLow: v.PrefersI != (v.I > v.J)}
}

// Value returns the paper's x_ij^k encoding with respect to the canonical
// pair (low index first): 1 when the worker prefers the lower-indexed
// object, 0 otherwise.
func (v Vote) Value() float64 {
	prefersLow := v.PrefersI
	if v.I > v.J {
		prefersLow = !v.PrefersI
	}
	if prefersLow {
		return 1
	}
	return 0
}

// Defect names the first range check a vote fails; DefectNone means it
// passes all three. The checks run in the order of the constants.
type Defect uint8

const (
	DefectNone Defect = iota
	// ObjectOutOfRange: an object id falls outside [0, n).
	ObjectOutOfRange
	// SelfPair: the vote compares an object with itself.
	SelfPair
	// WorkerOutOfRange: the worker id falls outside [0, m).
	WorkerOutOfRange
)

// Classify checks v against the object universe [0, n) and the worker
// universe [0, m). It is the one definition of a well-formed vote behind
// Validate, Clean and the public strict validation. A function, not a
// method, so the public Vote alias does not export it.
func Classify(v Vote, n, m int) Defect {
	switch {
	case v.I < 0 || v.I >= n || v.J < 0 || v.J >= n:
		return ObjectOutOfRange
	case v.I == v.J:
		return SelfPair
	case v.Worker < 0 || v.Worker >= m:
		return WorkerOutOfRange
	}
	return DefectNone
}

// Validate checks vote fields against the object universe [0, n) and worker
// universe [0, m).
func (v Vote) Validate(n, m int) error {
	switch Classify(v, n, m) {
	case ObjectOutOfRange:
		return fmt.Errorf("crowd: vote pair (%d,%d) outside object range [0,%d)", v.I, v.J, n)
	case SelfPair:
		return fmt.Errorf("crowd: vote compares object %d with itself", v.I)
	case WorkerOutOfRange:
		return fmt.Errorf("crowd: worker %d outside range [0,%d)", v.Worker, m)
	}
	return nil
}

// AppendVote appends v's binary encoding to dst: uvarint worker, i and j,
// then one preference byte, 1 when PrefersI. Journal batch records and
// snapshot files both store votes this way.
func AppendVote(dst []byte, v Vote) []byte {
	dst = binary.AppendUvarint(dst, uint64(v.Worker))
	dst = binary.AppendUvarint(dst, uint64(v.I))
	dst = binary.AppendUvarint(dst, uint64(v.J))
	if v.PrefersI {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// voteFields names AppendVote's varint fields, in order, for errors.
var voteFields = [3]string{"worker", "object i", "object j"}

// ReadVote decodes one AppendVote encoding from the front of data and
// returns the bytes after it. An error means structural damage: a field
// is unreadable, or the preference byte is missing or not 0 or 1. An id
// too large for the int32 id space decodes as -1, so the vote fails
// Validate and the caller applies its own policy to it.
func ReadVote(data []byte) (Vote, []byte, error) {
	var ids [3]int
	for f := range ids {
		// Ids below 2^14 take one or two bytes; recovery decodes every
		// vote here, so those skip the call into binary.Uvarint.
		if len(data) > 1 {
			if b0 := data[0]; b0 < 0x80 {
				ids[f], data = int(b0), data[1:]
				continue
			} else if b1 := data[1]; b1 < 0x80 {
				ids[f], data = int(b0&0x7f)|int(b1)<<7, data[2:]
				continue
			}
		}
		x, k := binary.Uvarint(data)
		if k <= 0 {
			return Vote{}, data, fmt.Errorf("%s unreadable", voteFields[f])
		}
		data = data[k:]
		ids[f] = -1
		if x < 1<<31 {
			ids[f] = int(x)
		}
	}
	if len(data) == 0 {
		return Vote{}, data, errors.New("missing preference byte")
	}
	if data[0] > 1 {
		return Vote{}, data, fmt.Errorf("preference byte %d", data[0])
	}
	return Vote{Worker: ids[0], I: ids[1], J: ids[2], PrefersI: data[0] == 1}, data[1:], nil
}

// ByWorker groups votes by worker id, preserving input order within each
// group.
func ByWorker(votes []Vote) map[int][]Vote {
	out := make(map[int][]Vote)
	for _, v := range votes {
		out[v.Worker] = append(out[v.Worker], v)
	}
	return out
}

// Workers returns the distinct worker ids appearing in votes, sorted.
func Workers(votes []Vote) []int {
	set := make(map[int]bool)
	for _, v := range votes {
		set[v.Worker] = true
	}
	out := make([]int, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}
