package crowd

import (
	"fmt"
	"testing"
	"unsafe"

	"crowdrank/internal/graph"
)

func TestVotePairAndValue(t *testing.T) {
	tests := []struct {
		name      string
		vote      Vote
		wantPair  graph.Pair
		wantValue float64
	}{
		{"forwardPrefersLow", Vote{Worker: 0, I: 1, J: 3, PrefersI: true}, graph.Pair{I: 1, J: 3}, 1},
		{"forwardPrefersHigh", Vote{Worker: 0, I: 1, J: 3, PrefersI: false}, graph.Pair{I: 1, J: 3}, 0},
		{"reversedPrefersLow", Vote{Worker: 0, I: 3, J: 1, PrefersI: false}, graph.Pair{I: 1, J: 3}, 1},
		{"reversedPrefersHigh", Vote{Worker: 0, I: 3, J: 1, PrefersI: true}, graph.Pair{I: 1, J: 3}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.vote.Pair(); got != tc.wantPair {
				t.Errorf("Pair = %v, want %v", got, tc.wantPair)
			}
			if got := tc.vote.Value(); got != tc.wantValue {
				t.Errorf("Value = %v, want %v", got, tc.wantValue)
			}
		})
	}
}

func TestVoteValidate(t *testing.T) {
	good := Vote{Worker: 2, I: 0, J: 1, PrefersI: true}
	if err := good.Validate(3, 3); err != nil {
		t.Errorf("valid vote rejected: %v", err)
	}
	bad := []Vote{
		{Worker: 0, I: 0, J: 0},  // self comparison
		{Worker: 0, I: -1, J: 1}, // negative object
		{Worker: 0, I: 0, J: 5},  // object out of range
		{Worker: 5, I: 0, J: 1},  // worker out of range
		{Worker: -1, I: 0, J: 1}, // negative worker
	}
	for i, v := range bad {
		if err := v.Validate(3, 3); err == nil {
			t.Errorf("bad vote %d accepted: %+v", i, v)
		}
	}
}

// TestClassifyOrderAndTexts pins the order of Classify's three range checks
// and the error text Validate gives for each.
func TestClassifyOrderAndTexts(t *testing.T) {
	tests := []struct {
		vote Vote
		want Defect
		text string
	}{
		{Vote{Worker: 2, I: 0, J: 1}, DefectNone, ""},
		{Vote{Worker: 9, I: 4, J: 4}, ObjectOutOfRange, "crowd: vote pair (4,4) outside object range [0,3)"},
		{Vote{Worker: 0, I: -1, J: 1}, ObjectOutOfRange, "crowd: vote pair (-1,1) outside object range [0,3)"},
		{Vote{Worker: 9, I: 1, J: 1}, SelfPair, "crowd: vote compares object 1 with itself"},
		{Vote{Worker: 3, I: 0, J: 2}, WorkerOutOfRange, "crowd: worker 3 outside range [0,3)"},
	}
	for _, tc := range tests {
		if got := Classify(tc.vote, 3, 3); got != tc.want {
			t.Errorf("%+v: Classify = %d, want %d", tc.vote, got, tc.want)
		}
		err := tc.vote.Validate(3, 3)
		if got := fmt.Sprint(err); (err == nil) != (tc.text == "") || (err != nil && got != tc.text) {
			t.Errorf("%+v: Validate = %v, want %q", tc.vote, err, tc.text)
		}
	}
}

func sampleVotes() []Vote {
	return []Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 1, I: 1, J: 0, PrefersI: true}, // same pair, opposite
		{Worker: 0, I: 1, J: 2, PrefersI: true},
		{Worker: 2, I: 2, J: 1, PrefersI: false},
	}
}

func TestByWorker(t *testing.T) {
	byWorker := ByWorker(sampleVotes())
	if len(byWorker[0]) != 2 || len(byWorker[1]) != 1 || len(byWorker[2]) != 1 {
		t.Errorf("ByWorker = %v", byWorker)
	}
}

// TestSubmissionIgnoresObjectOrder: a vote and its re-submission with the
// objects swapped are one submission; the opposite answer is another.
func TestSubmissionIgnoresObjectOrder(t *testing.T) {
	v := Vote{Worker: 3, I: 0, J: 1, PrefersI: true}
	swapped := Vote{Worker: 3, I: 1, J: 0, PrefersI: false}
	if v.Submission() != swapped.Submission() {
		t.Errorf("%+v and %+v should be one submission", v.Submission(), swapped.Submission())
	}
	want := Submission{Worker: 3, Pair: graph.Pair{I: 0, J: 1}, PrefersLow: true}
	if got := v.Submission(); got != want {
		t.Errorf("Submission() = %+v, want %+v", got, want)
	}
	opposite := Vote{Worker: 3, I: 1, J: 0, PrefersI: true}
	if opposite.Submission() == v.Submission() {
		t.Error("the opposite answer should be a different submission")
	}
}

func TestWorkersSorted(t *testing.T) {
	workers := Workers(sampleVotes())
	if len(workers) != 3 || workers[0] != 0 || workers[2] != 2 {
		t.Errorf("Workers = %v", workers)
	}
}

// TestReadVoteOutOfIDSpace: an id beyond the int32 id space decodes as -1,
// which Validate rejects, so journal replay drops the vote and a snapshot
// refuses the file. Round trips and structural damage are covered by the
// batch and snapshot codec tests.
func TestReadVoteOutOfIDSpace(t *testing.T) {
	data := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 1, 1} // worker 2^35, 0, 1, prefers i
	v, rest, err := ReadVote(data)
	if err != nil || len(rest) != 0 || v.Worker != -1 || v.Validate(4, 4) == nil {
		t.Fatalf("ReadVote = %+v, %d bytes left, %v", v, len(rest), err)
	}
}

// TestPackedRoundTrip pins the packed form: 12 bytes, and every vote with
// ids at both ends of the id space, in both orientations and with both
// answers, unpacks to itself.
func TestPackedRoundTrip(t *testing.T) {
	if size := unsafe.Sizeof(Packed{}); size != 12 {
		t.Fatalf("Packed is %d bytes, want 12", size)
	}
	const top = 1<<31 - 1
	for _, ids := range [][3]int{{0, 0, 1}, {0, 1, 0}, {top, top - 1, top}, {top, top, top - 1}, {top, 0, top}, {0, top, 0}} {
		for _, prefersI := range []bool{true, false} {
			v := Vote{Worker: ids[0], I: ids[1], J: ids[2], PrefersI: prefersI}
			if got := Pack(v).Vote(); got != v {
				t.Fatalf("Pack(%+v).Vote() = %+v", v, got)
			}
		}
	}
}
