package serve

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/snapshot"
)

// submissionKey is the reference form of the dedup rule: one (worker,
// unordered pair, answer) submission, with the pair canonicalized so a
// re-submission in swapped object order still collides.
type submissionKey struct {
	worker     int
	lo, hi     int
	prefersLow bool
}

func keyOf(v crowd.Vote) submissionKey {
	lo, hi, prefersLow := v.I, v.J, v.PrefersI
	if lo > hi {
		lo, hi = hi, lo
		prefersLow = !prefersLow
	}
	return submissionKey{worker: v.Worker, lo: lo, hi: hi, prefersLow: prefersLow}
}

const dedupFuzzN, dedupFuzzM = 6, 3

// dedupFuzzVotes decodes data into votes over a dedupFuzzN x dedupFuzzM
// universe, three bytes a vote. The top two bits of the first byte pick
// the shape: a fresh vote, a repeat of the previous vote, the previous
// vote in swapped object order (the same submission), or the previous
// pair with the other answer from the same worker.
func dedupFuzzVotes(data []byte) []crowd.Vote {
	var votes []crowd.Vote
	for ; len(data) >= 3; data = data[3:] {
		mode, prev := data[0]>>6, crowd.Vote{}
		if len(votes) > 0 {
			prev = votes[len(votes)-1]
		} else {
			mode = 0
		}
		var v crowd.Vote
		switch mode {
		case 0:
			v = crowd.Vote{
				Worker:   int(data[0]) % dedupFuzzM,
				I:        int(data[1]) % dedupFuzzN,
				J:        int(data[2]) % dedupFuzzN,
				PrefersI: data[1]&0x80 != 0,
			}
			if v.I == v.J {
				v.J = (v.I + 1) % dedupFuzzN
			}
		case 1:
			v = prev
		case 2:
			v = crowd.Vote{Worker: prev.Worker, I: prev.J, J: prev.I, PrefersI: !prev.PrefersI}
		case 3:
			v = prev
			v.PrefersI = !v.PrefersI
		}
		votes = append(votes, v)
	}
	return votes
}

// FuzzDedupSet checks the bitset dedup set against a map keyed by the
// reference rule: every add must agree, and a voteState applying the same
// votes in batches must keep exactly the reference's votes, in order, with
// the same added and duplicate counts per batch.
func FuzzDedupSet(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0x01, 0x82, 0x03, 0x40, 0, 0, 0x80, 0, 0, 0xc0, 0, 0})
	f.Add([]byte{0x00, 0x05, 0x00, 0x01, 0x05, 0x00, 0x02, 0x85, 0x00, 0x80, 0, 0})
	f.Add([]byte("swapped orientations and both answers from one worker"))

	f.Fuzz(func(t *testing.T, data []byte) {
		votes := dedupFuzzVotes(data)
		set := newDedupSet(dedupFuzzN, dedupFuzzM)
		ref := make(map[submissionKey]bool)
		var kept []crowd.Vote
		for i, v := range votes {
			k := keyOf(v)
			want := !ref[k]
			ref[k] = true
			if got := set.add(v); got != want {
				t.Fatalf("vote %d %+v: add = %v, reference says new = %v", i, v, got, want)
			}
			if want {
				kept = append(kept, v)
			}
		}

		st := newVoteState(dedupFuzzN, dedupFuzzM, 0)
		batchRef := make(map[submissionKey]bool)
		for start := 0; start < len(votes); start += 4 {
			batch := votes[start:min(start+4, len(votes))]
			var wantAdded, wantDups int
			for _, v := range batch {
				if k := keyOf(v); batchRef[k] {
					wantDups++
				} else {
					batchRef[k] = true
					wantAdded++
				}
			}
			res := st.apply(batchRecord{votes: batch})
			if res.Accepted != wantAdded || res.Duplicates != wantDups {
				t.Fatalf("batch at %d: apply = (%d added, %d dups), reference (%d, %d)",
					start, res.Accepted, res.Duplicates, wantAdded, wantDups)
			}
		}
		if !slices.Equal(st.votes, kept) {
			t.Fatalf("vote state kept %v, reference %v", st.votes, kept)
		}
	})
}

// TestSnapshotDedupRefusal pins which snapshots recovery refuses as
// holding a duplicate submission: the same answer named in swapped object
// order is one submission twice, while both answers on one pair from one
// worker are two distinct submissions.
func TestSnapshotDedupRefusal(t *testing.T) {
	cases := []struct {
		name    string
		votes   []crowd.Vote
		refused bool
	}{
		{"swapped orientation, same answer", []crowd.Vote{
			{Worker: 1, I: 2, J: 5, PrefersI: true},
			{Worker: 1, I: 5, J: 2, PrefersI: false},
		}, true},
		{"same orientation, both answers", []crowd.Vote{
			{Worker: 1, I: 2, J: 5, PrefersI: true},
			{Worker: 1, I: 2, J: 5, PrefersI: false},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			cfg := snapCfg(t, dir)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := snapshot.Write(dir, snapshot.State{N: cfg.N, M: cfg.M, Votes: tc.votes}); err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, cfg)
			rec := s.Recovered()
			if !tc.refused {
				if len(rec.CorruptSnapshots) != 0 || rec.SnapshotPath == "" || s.VoteCount() != len(tc.votes) {
					t.Fatalf("snapshot not accepted: %d votes, %+v", s.VoteCount(), rec)
				}
				return
			}
			if len(rec.CorruptSnapshots) != 1 || !strings.Contains(rec.CorruptSnapshots[0], "duplicate submission") {
				t.Fatalf("snapshot with a duplicate submission not refused: %+v", rec)
			}
			if rec.SnapshotPath != "" || s.VoteCount() != 0 {
				t.Fatalf("refused snapshot still seeded the state: %d votes, %+v", s.VoteCount(), rec)
			}
		})
	}
}

// TestDedupSetAllocatesPerVotingWorker pins the memory bound: a worker's
// bitset exists only once that worker has voted.
func TestDedupSetAllocatesPerVotingWorker(t *testing.T) {
	const n, m = 1000, 1000
	set := newDedupSet(n, m)
	for _, w := range []int{3, 500, 999} {
		for i := 0; i < 10; i++ {
			set.add(crowd.Vote{Worker: w, I: i, J: n - 1 - i, PrefersI: i%2 == 0})
		}
	}
	allocated := 0
	for _, bits := range set.bits {
		if bits != nil {
			allocated++
			if len(bits) != (n*(n-1)+63)/64 {
				t.Fatalf("bitset of %d words, want %d", len(bits), (n*(n-1)+63)/64)
			}
		}
	}
	if allocated != 3 {
		t.Fatalf("%d bitsets allocated for 3 voting workers", allocated)
	}
}
