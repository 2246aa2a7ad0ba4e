package truth

import (
	"slices"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
)

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(1, 1); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := NewIndex(3, 0); err == nil {
		t.Error("m=0 should fail")
	}
}

func TestIndexAdd(t *testing.T) {
	idx, err := NewIndex(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Add([]crowd.Vote{vote(0, 2, 1, true), vote(1, 1, 2, true), vote(2, 0, 3, false)}); err != nil {
		t.Fatal(err)
	}
	// A bad vote anywhere in a batch adds none of it.
	if err := idx.Add([]crowd.Vote{vote(0, 0, 1, true), vote(3, 0, 1, true)}); err == nil {
		t.Fatal("worker outside [0,m) should fail")
	}
	if idx.Len() != 3 || idx.Pairs() != 2 {
		t.Fatalf("Len %d Pairs %d, want 3 and 2", idx.Len(), idx.Pairs())
	}
	// Pair ids run in first-seen order; lookups accept either orientation.
	if got := idx.Pair(0); got != (graph.Pair{I: 1, J: 2}) {
		t.Errorf("pair 0 = %v, want (1,2)", got)
	}
	if id, ok := idx.PairID(3, 0); !ok || id != 1 {
		t.Errorf("PairID(3,0) = %d %v, want 1 true", id, ok)
	}
	if _, ok := idx.PairID(0, 1); ok {
		t.Error("an unvoted pair has no id")
	}
	if _, ok := idx.PairID(0, 9); ok {
		t.Error("an out-of-range pair has no id")
	}
	if got := idx.VotersOf([]int{1, -1, 0, 1}); !slices.Equal(got[0], []int32{2}) || got[1] != nil || !slices.Equal(got[2], []int32{0, 1}) || !slices.Equal(got[3], []int32{2}) {
		t.Errorf("VotersOf(1,-1,0,1) = %v, want [[2] [] [0 1] [2]]", got)
	}
	// Votes are filed with respect to the canonical orientation, in vote
	// order: the log reads the pair id, worker and value of each vote.
	var filed [][3]uint32
	for _, c := range idx.log {
		for _, e := range c {
			filed = append(filed, [3]uint32{e.pair, e.wv >> 1, e.wv & 1})
		}
	}
	if want := [][3]uint32{{0, 0, 0}, {0, 1, 1}, {1, 2, 0}}; !slices.Equal(filed, want) {
		t.Errorf("log (pair, worker, value) = %v, want %v", filed, want)
	}
	if got := []int{idx.WorkerVotes(0), idx.WorkerVotes(1), idx.WorkerVotes(2)}; !slices.Equal(got, []int{1, 1, 1}) {
		t.Errorf("per-worker counts = %v, want [1 1 1]", got)
	}
}

func TestIndexAddPackedMatchesAdd(t *testing.T) {
	votes := []crowd.Vote{vote(0, 2, 1, true), vote(1, 1, 2, true), vote(2, 0, 3, false), vote(1, 3, 0, true)}
	a, _ := NewIndex(4, 3)
	b, _ := NewIndex(4, 3)
	if err := a.Add(votes); err != nil {
		t.Fatal(err)
	}
	packed := make([]crowd.Packed, len(votes))
	for i, v := range votes {
		packed[i] = crowd.Pack(v)
	}
	if err := b.AddPacked(packed); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.log[0], b.log[0]) || !slices.Equal(a.pairs, b.pairs) || !slices.Equal(a.counts, b.counts) {
		t.Errorf("AddPacked filed %v %v %v, Add %v %v %v", b.log, b.pairs, b.counts, a.log, a.pairs, a.counts)
	}
	if err := b.AddPacked([]crowd.Packed{crowd.Pack(vote(3, 0, 1, true))}); err == nil || b.Len() != len(votes) {
		t.Errorf("a bad packed vote: err %v, Len %d", err, b.Len())
	}
}

func TestIndexLogChunks(t *testing.T) {
	idx, _ := NewIndex(3, 2)
	votes := make([]crowd.Vote, chunkVotes+5)
	for k := range votes {
		votes[k] = vote(k%2, 0, 1+k%2, k%3 == 0)
	}
	if err := idx.Add(votes[:7]); err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(votes[7:]); err != nil {
		t.Fatal(err)
	}
	if len(idx.log) != 2 || len(idx.log[0]) != chunkVotes || cap(idx.log[0]) != chunkVotes || len(idx.log[1]) != 5 {
		t.Fatalf("chunks of %d votes: %d chunks", len(votes), len(idx.log))
	}
	// Pair 0 is (0,1), answered by worker 0 at every even k.
	got := idx.VotersOf([]int{0, 1})
	if len(got[0]) != chunkVotes/2+3 || len(got[1]) != chunkVotes/2+2 || slices.ContainsFunc(got[0], func(w int32) bool { return w != 0 }) {
		t.Errorf("voters across chunks: %d + %d", len(got[0]), len(got[1]))
	}
}

func TestIndexSlotsCoverTheTriangle(t *testing.T) {
	const n = 7
	idx, err := NewIndex(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One vote per pair in (I, J) order files every pair under its own
	// triangle slot, so pair ids follow that order in either orientation.
	var votes []crowd.Vote
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			votes = append(votes, crowd.Vote{I: j, J: i})
		}
	}
	if err := idx.Add(votes); err != nil {
		t.Fatal(err)
	}
	if len(idx.slot) != len(votes) || idx.Pairs() != len(votes) {
		t.Fatalf("%d slots and %d pairs for %d distinct pairs", len(idx.slot), idx.Pairs(), len(votes))
	}
	want := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if id, ok := idx.PairID(j, i); !ok || id != want || idx.Pair(id) != (graph.Pair{I: i, J: j}) {
				t.Fatalf("pair (%d,%d): id %d (%v), want %d", i, j, id, ok, want)
			}
			want++
		}
	}
}

func TestDiscoverNoVotes(t *testing.T) {
	idx, err := NewIndex(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(idx, DefaultParams()); err == nil {
		t.Error("an empty index should fail")
	}
}
