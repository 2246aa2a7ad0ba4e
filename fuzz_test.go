package crowdrank

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"crowdrank/internal/core"
	"crowdrank/internal/invariant"
)

// FuzzReadVotesCSV checks that arbitrary input never panics the CSV parser
// and that successfully parsed votes survive a write/read round trip.
func FuzzReadVotesCSV(f *testing.F) {
	f.Add("worker,i,j,prefers_i\n0,1,2,true\n")
	f.Add("0,1,2,false\n3,4,5,true\n")
	f.Add("")
	f.Add("worker,i,j,prefers_i\n")
	f.Add("a,b,c,d\n")
	f.Add("0,1\n")
	f.Fuzz(func(t *testing.T, input string) {
		votes, err := ReadVotesCSV(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteVotesCSV(&buf, votes); err != nil {
			t.Fatalf("re-encoding parsed votes failed: %v", err)
		}
		again, err := ReadVotesCSV(&buf)
		if err != nil {
			t.Fatalf("re-parsing re-encoded votes failed: %v", err)
		}
		if len(again) != len(votes) {
			t.Fatalf("round trip changed vote count: %d -> %d", len(votes), len(again))
		}
		for i := range votes {
			if again[i] != votes[i] {
				t.Fatalf("round trip changed vote %d: %+v -> %+v", i, votes[i], again[i])
			}
		}
	})
}

// FuzzKendallDistance checks the metric's bounds and the Knight/naive
// agreement on arbitrary byte-derived permutations.
func FuzzKendallDistance(f *testing.F) {
	f.Add([]byte{1, 0, 2}, []byte{0, 1, 2})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{5}, []byte{7})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// Derive two permutations of the same length from the fuzz input by
		// sorting object ids by byte value (stable), so inputs always
		// validate.
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 || n > 64 {
			return
		}
		pa := permFromBytes(a[:n])
		pb := permFromBytes(b[:n])
		d, err := KendallTauDistance(pa, pb)
		if err != nil {
			t.Fatalf("valid permutations rejected: %v", err)
		}
		if d < 0 || d > 1 {
			t.Fatalf("distance %v out of [0,1]", d)
		}
		back, err := KendallTauDistance(pb, pa)
		if err != nil {
			t.Fatal(err)
		}
		if d != back {
			t.Fatalf("distance not symmetric: %v vs %v", d, back)
		}
	})
}

// FuzzInferVotes feeds arbitrary vote slices into Infer: lenient mode must
// never panic (it drops garbage and reports it), and strict mode must either
// accept exactly what ValidateVotes accepts or fail with a *VoteError.
func FuzzInferVotes(f *testing.F) {
	f.Add(5, 3, []byte{0, 0, 1, 1, 1, 2, 3, 0})
	f.Add(2, 1, []byte{})
	f.Add(3, 2, []byte{255, 255, 255, 254, 7, 7, 7, 7})
	f.Add(4, 2, []byte{0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, n, m int, raw []byte) {
		if n < 1 || n > 12 || m < 1 || m > 8 {
			return
		}
		// Decode 4 bytes per vote: worker, i, j, prefers. Bytes are shifted
		// so ids land both inside and outside the valid ranges (including
		// negatives), exercising every sanitization branch.
		var votes []Vote
		for k := 0; k+3 < len(raw) && len(votes) < 200; k += 4 {
			votes = append(votes, Vote{
				Worker:   int(raw[k]) - 2,
				I:        int(raw[k+1]) - 2,
				J:        int(raw[k+2]) - 2,
				PrefersI: raw[k+3]%2 == 0,
			})
		}

		res, err := Infer(n, m, votes, WithSeed(1))
		if err == nil {
			if oracleErr := invariant.VerifyRanking(n, res.Ranking); oracleErr != nil {
				t.Fatalf("invariant oracle rejected the ranking: %v", oracleErr)
			}
			if res.Sanitization.Kept+res.Sanitization.Dropped() != res.Sanitization.Input {
				t.Fatalf("sanitize accounting mismatch: %+v", res.Sanitization)
			}
		}
		// A graceful error (e.g. nothing survives sanitization) is fine;
		// panics are not.

		_, strictErr := Infer(n, m, votes, WithSeed(1), WithStrictVotes())
		var ve *VoteError
		if wantErr := ValidateVotes(n, m, votes); wantErr != nil {
			// Bad input must surface as a typed *VoteError in strict mode.
			if !errors.As(strictErr, &ve) {
				t.Fatalf("strict Infer err %v disagrees with ValidateVotes err %v", strictErr, wantErr)
			}
		} else if errors.As(strictErr, &ve) {
			t.Fatalf("strict Infer flagged vote %d but ValidateVotes accepted the input", ve.Index)
		}
	})
}

// FuzzPipelineInvariants runs the full Steps 1-3 pipeline on arbitrary
// sanitized vote sets and holds the output against the invariant oracle:
// whenever BuildClosure succeeds, the closure must be a complete normalized
// tournament (Theorem 5.1's precondition), and whenever Infer succeeds on
// the same votes, the ranking must be a permutation. Structural corruption
// anywhere in truth discovery, smoothing, or propagation surfaces here
// instead of as a silently wrong ranking.
func FuzzPipelineInvariants(f *testing.F) {
	f.Add(5, 3, []byte{0, 0, 1, 1, 1, 2, 3, 0, 2, 0, 2, 1})
	f.Add(3, 2, []byte{0, 0, 1, 0, 1, 1, 2, 1, 0, 0, 2, 0})
	f.Add(4, 2, []byte{0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1})
	f.Add(2, 1, []byte{0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, n, m int, raw []byte) {
		if n < 2 || n > 10 || m < 1 || m > 6 {
			return
		}
		var votes []Vote
		for k := 0; k+3 < len(raw) && len(votes) < 120; k += 4 {
			votes = append(votes, Vote{
				Worker:   int(raw[k]) - 2,
				I:        int(raw[k+1]) - 2,
				J:        int(raw[k+2]) - 2,
				PrefersI: raw[k+3]%2 == 0,
			})
		}
		clean, _ := SanitizeVotes(n, m, votes)
		if len(clean) == 0 {
			return
		}

		cl, err := core.BuildClosure(n, m, clean, core.DefaultOptions(), core.NewPipelineRNG(1))
		if err != nil {
			return // graceful rejection is fine; invariants apply to successes
		}
		if oracleErr := invariant.VerifyTournament(cl.Closure); oracleErr != nil {
			t.Fatalf("closure violates the tournament invariant: %v", oracleErr)
		}

		res, err := Infer(n, m, clean, WithSeed(1))
		if err != nil {
			return
		}
		if oracleErr := invariant.VerifyRanking(n, res.Ranking); oracleErr != nil {
			t.Fatalf("ranking violates the permutation invariant: %v", oracleErr)
		}
	})
}

// permFromBytes builds a permutation of {0..n-1} ordered by the byte keys
// (stable insertion sort keeps it deterministic).
func permFromBytes(keys []byte) []int {
	n := len(keys)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && keys[perm[j]] < keys[perm[j-1]]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}
