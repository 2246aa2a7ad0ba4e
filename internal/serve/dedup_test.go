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

// packed returns votes in the daemon's packed form.
func packed(votes []crowd.Vote) []crowd.Packed {
	out := make([]crowd.Packed, len(votes))
	for i, v := range votes {
		out[i] = crowd.Pack(v)
	}
	return out
}

// unpacked returns the votes ps pack.
func unpacked(ps []crowd.Packed) []crowd.Vote {
	out := make([]crowd.Vote, len(ps))
	for i, p := range ps {
		out[i] = p.Vote()
	}
	return out
}

func keyOf(v crowd.Vote) submissionKey {
	lo, hi, prefersLow := v.I, v.J, v.PrefersI
	if lo > hi {
		lo, hi = hi, lo
		prefersLow = !prefersLow
	}
	return submissionKey{worker: v.Worker, lo: lo, hi: hi, prefersLow: prefersLow}
}

// The fuzz universe's limit is 24·23/64 = 8 ids per sparse worker, so a
// short stream already moves a worker to its dense bitset.
const dedupFuzzN, dedupFuzzM = 24, 3

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

// FuzzDedupSet checks the dedup set against a map keyed by the reference
// rule: every add must agree, across each worker's sparse → dense switch;
// a voteState applying the same votes in batches must keep exactly the
// reference's votes, in order, with the same added and duplicate counts
// per batch; and a state seeded with the kept votes must find each of
// them already there.
func FuzzDedupSet(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0x01, 0x82, 0x03, 0x40, 0, 0, 0x80, 0, 0, 0xc0, 0, 0})
	f.Add([]byte{0x00, 0x05, 0x00, 0x01, 0x05, 0x00, 0x02, 0x85, 0x00, 0x80, 0, 0})
	f.Add([]byte("swapped orientations and both answers from one worker"))
	// Worker 0 past its limit: twelve fresh pairs, each followed by its
	// swapped form, then the first pairs again once the worker is dense.
	var cross []byte
	for k := byte(0); k < 12; k++ {
		cross = append(cross, 0x00, k, k+1, 0x80, 0, 0)
	}
	f.Add(append(cross, 0x00, 0, 1, 0x00, 1, 2, 0xc0, 0, 0))
	// Two workers interleaved: worker 0 crosses, worker 1 stays sparse.
	var two []byte
	for k := byte(0); k < 10; k++ {
		two = append(two, 0x03, 2*k, 2*k+5)
		if k < 6 {
			two = append(two, 0x01, k, 23-k)
		}
	}
	f.Add(two)

	f.Fuzz(func(t *testing.T, data []byte) {
		votes := dedupFuzzVotes(data)
		set := newDedupSet(dedupFuzzN, dedupFuzzM)
		ref := make(map[submissionKey]bool)
		var kept []crowd.Vote
		for i, v := range votes {
			k := keyOf(v)
			want := !ref[k]
			ref[k] = true
			if got := set.add(crowd.Pack(v)); got != want {
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
			res := st.apply(batchRecord{votes: packed(batch)})
			if res.Accepted != wantAdded || res.Duplicates != wantDups {
				t.Fatalf("batch at %d: apply = (%d added, %d dups), reference (%d, %d)",
					start, res.Accepted, res.Duplicates, wantAdded, wantDups)
			}
		}
		if got := unpacked(st.votes); !slices.Equal(got, kept) {
			t.Fatalf("vote state kept %v, reference %v", got, kept)
		}

		seeded := newVoteState(dedupFuzzN, dedupFuzzM, 0)
		if err := seeded.seed(snapshot.Image{Votes: st.votes}, nil); err != nil {
			t.Fatalf("seeding the kept votes: %v", err)
		}
		for i, v := range votes {
			if seeded.seen.add(crowd.Pack(v)) {
				t.Fatalf("vote %d %+v: new to a state seeded with every kept vote", i, v)
			}
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

// TestDedupSetAllocatesPerVotingWorker pins the memory bound: a worker
// costs nothing until it votes, then a table that grows with its votes,
// and the bitset only past limit ids, holding every id it held before.
func TestDedupSetAllocatesPerVotingWorker(t *testing.T) {
	const n, m = 1000, 1000
	set := newDedupSet(n, m)
	for _, w := range []int{3, 500, 999} {
		for i := 0; i < 10; i++ {
			set.add(crowd.Pack(crowd.Vote{Worker: w, I: i, J: n - 1 - i, PrefersI: i%2 == 0}))
		}
	}
	voting := 0
	for w, ws := range set.sets {
		if ws.table == nil && ws.dense == nil {
			continue
		}
		voting++
		if ws.dense != nil || ws.ids != 10 || len(ws.table) != 16 {
			t.Fatalf("worker %d after 10 votes: %d ids in a %d-slot table, dense %v", w, ws.ids, len(ws.table), ws.dense != nil)
		}
	}
	if voting != 3 {
		t.Fatalf("%d workers hold ids after 3 voted", voting)
	}

	var votes []crowd.Vote
	for i := 0; len(votes) <= set.limit; i++ {
		votes = append(votes, crowd.Vote{Worker: 7, I: i % n, J: (i/n + i + 1) % n, PrefersI: true})
	}
	for i, v := range votes {
		if !set.add(crowd.Pack(v)) {
			t.Fatalf("vote %d %+v reported as a duplicate", i, v)
		}
	}
	if ws := set.sets[7]; ws.dense == nil || ws.table != nil || len(ws.dense) != (n*(n-1)+63)/64 {
		t.Fatalf("worker past its limit of %d ids is not dense: %d-slot table", set.limit, len(ws.table))
	}
	for i, v := range votes {
		if set.add(crowd.Pack(v)) {
			t.Fatalf("vote %d %+v lost in the switch to the bitset", i, v)
		}
	}
}

// TestSeedPicksDedupForm checks that seed gives each worker its final
// form at once, from its votes in the snapshot and in the records applied
// next: past the limit dense, below it a table that will not grow.
func TestSeedPicksDedupForm(t *testing.T) {
	const n, m = 24, 4 // limit 24·23/64 = 8 ids
	worker := func(w, from, count int) []crowd.Packed {
		var out []crowd.Packed
		for i := from; i < from+count; i++ {
			out = append(out, crowd.Pack(crowd.Vote{Worker: w, I: i, J: i + 1, PrefersI: true}))
		}
		return out
	}
	var votes []crowd.Packed
	votes = append(votes, worker(0, 0, 9)...) // 9 > 8: dense
	votes = append(votes, worker(1, 0, 8)...) // 8: sparse
	votes = append(votes, worker(2, 0, 5)...) // 5, then 4 more replayed: dense
	then := []batchRecord{{votes: worker(2, 5, 4)}}
	st := newVoteState(n, m, 0)
	if err := st.seed(snapshot.Image{Votes: votes}, then); err != nil {
		t.Fatal(err)
	}
	sets := st.seen.sets
	if sets[0].dense == nil || sets[0].table != nil {
		t.Fatal("worker 0 with 9 ids did not start dense")
	}
	if sets[1].dense != nil || sets[1].ids != 8 || len(sets[1].table) != tableFor(8) {
		t.Fatalf("worker 1 with 8 ids: %d ids in a %d-slot table, dense %v", sets[1].ids, len(sets[1].table), sets[1].dense != nil)
	}
	if sets[2].dense == nil {
		t.Fatal("worker 2 with 5 ids seeded and 4 to replay did not start dense")
	}
	if sets[3].dense != nil || sets[3].table != nil {
		t.Fatal("worker 3 without votes holds a set")
	}
	table := sets[1].table
	st.apply(batchRecord{votes: then[0].votes})
	if sets[2].dense == nil || len(st.seen.sets[1].table) != len(table) {
		t.Fatal("replaying the counted records changed a worker's form")
	}
}
