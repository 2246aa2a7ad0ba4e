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
	if got := idx.Voters(2, 1); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("Voters(2,1) = %v, want [0 1]", got)
	}
	// Votes are filed with respect to the canonical orientation.
	if pv := idx.pairs[0]; !slices.Equal(pv.values, []uint8{0, 1}) {
		t.Errorf("pair (1,2) values = %v, want [0 1]", pv.values)
	}
	if wv := idx.byWorker[2]; !slices.Equal(wv.pairs, []int32{1}) || !slices.Equal(wv.values, []uint8{0}) {
		t.Errorf("worker 2 votes = %+v", wv)
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
