package crowd

import (
	"testing"

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

func sampleVotes() []Vote {
	return []Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 1, I: 1, J: 0, PrefersI: true}, // same pair, opposite
		{Worker: 0, I: 1, J: 2, PrefersI: true},
		{Worker: 2, I: 2, J: 1, PrefersI: false},
	}
}

func TestByPairAndByWorker(t *testing.T) {
	votes := sampleVotes()
	byPair := ByPair(votes)
	if len(byPair[graph.Pair{I: 0, J: 1}]) != 2 {
		t.Errorf("pair (0,1) group = %v", byPair[graph.Pair{I: 0, J: 1}])
	}
	if len(byPair[graph.Pair{I: 1, J: 2}]) != 2 {
		t.Errorf("pair (1,2) group = %v", byPair[graph.Pair{I: 1, J: 2}])
	}
	byWorker := ByWorker(votes)
	if len(byWorker[0]) != 2 || len(byWorker[1]) != 1 || len(byWorker[2]) != 1 {
		t.Errorf("ByWorker = %v", byWorker)
	}
}

func TestWorkersSorted(t *testing.T) {
	workers := Workers(sampleVotes())
	if len(workers) != 3 || workers[0] != 0 || workers[2] != 2 {
		t.Errorf("Workers = %v", workers)
	}
}

func TestMajorityPreference(t *testing.T) {
	votes := sampleVotes()
	pref := MajorityPreference(votes)
	// Pair (0,1): worker 0 says 0<1 (value 1), worker 1 says 1<0 (value 0).
	if got := pref[graph.Pair{I: 0, J: 1}]; got != 0.5 {
		t.Errorf("pref(0,1) = %v, want 0.5", got)
	}
	// Pair (1,2): worker 0 says 1<2 (value 1), worker 2 vote (2,1,false)
	// means prefers 1, i.e. 1<2 (value 1).
	if got := pref[graph.Pair{I: 1, J: 2}]; got != 1 {
		t.Errorf("pref(1,2) = %v, want 1", got)
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
