package crowdrank

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goodVotes returns a well-formed vote set over n=4 objects, m=3 workers
// with every pair covered.
func goodVotes() []Vote {
	var votes []Vote
	for w := 0; w < 3; w++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				votes = append(votes, Vote{Worker: w, I: i, J: j, PrefersI: i < j})
			}
		}
	}
	return votes
}

func TestSanitizeStrictVsLenientTable(t *testing.T) {
	const n, m = 4, 3
	cases := []struct {
		name       string
		bad        Vote
		wantReason string
		count      func(SanitizeReport) int
	}{
		{
			name:       "object id too large",
			bad:        Vote{Worker: 0, I: 0, J: 4, PrefersI: true},
			wantReason: "object id outside [0,4)",
			count:      func(r SanitizeReport) int { return r.OutOfRangePairs },
		},
		{
			name:       "negative object id",
			bad:        Vote{Worker: 0, I: -1, J: 2, PrefersI: true},
			wantReason: "object id outside [0,4)",
			count:      func(r SanitizeReport) int { return r.OutOfRangePairs },
		},
		{
			name:       "self pair",
			bad:        Vote{Worker: 1, I: 2, J: 2, PrefersI: false},
			wantReason: "object compared with itself",
			count:      func(r SanitizeReport) int { return r.SelfPairs },
		},
		{
			name:       "worker id too large",
			bad:        Vote{Worker: 3, I: 0, J: 1, PrefersI: true},
			wantReason: "worker id outside [0,3)",
			count:      func(r SanitizeReport) int { return r.InvalidWorkers },
		},
		{
			name:       "negative worker id",
			bad:        Vote{Worker: -2, I: 0, J: 1, PrefersI: true},
			wantReason: "worker id outside [0,3)",
			count:      func(r SanitizeReport) int { return r.InvalidWorkers },
		},
		{
			name:       "duplicate submission",
			bad:        Vote{Worker: 0, I: 0, J: 1, PrefersI: true}, // exact copy of an earlier vote
			wantReason: "duplicate",
			count:      func(r SanitizeReport) int { return r.Duplicates },
		},
		{
			name: "duplicate with swapped order",
			// Same worker and pair as goodVotes' (0,1) answer, stated from
			// the other side: J preferred over I means I ranked before J is
			// false... swapped orientation of the identical submission.
			bad:        Vote{Worker: 0, I: 1, J: 0, PrefersI: false},
			wantReason: "duplicate",
			count:      func(r SanitizeReport) int { return r.Duplicates },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			votes := append(goodVotes(), tc.bad)

			// Strict: typed error naming the offending vote.
			err := ValidateVotes(n, m, votes)
			if err == nil {
				t.Fatal("ValidateVotes accepted bad vote")
			}
			var ve *VoteError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *VoteError", err)
			}
			if ve.Index != len(votes)-1 {
				t.Errorf("offender index %d, want %d", ve.Index, len(votes)-1)
			}
			if ve.Vote != tc.bad {
				t.Errorf("offender vote %+v, want %+v", ve.Vote, tc.bad)
			}
			if !strings.Contains(ve.Reason, tc.wantReason) {
				t.Errorf("reason %q does not mention %q", ve.Reason, tc.wantReason)
			}

			// Strict Infer surfaces the same typed error.
			if _, err := Infer(n, m, votes, WithSeed(1), WithStrictVotes()); err == nil {
				t.Error("strict Infer accepted bad vote")
			} else if !errors.As(err, &ve) {
				t.Errorf("strict Infer error is %T, want *VoteError", err)
			}

			// Lenient: drop, count, and keep going.
			clean, report := SanitizeVotes(n, m, votes)
			if len(clean) != len(goodVotes()) {
				t.Errorf("kept %d votes, want %d", len(clean), len(goodVotes()))
			}
			if got := tc.count(report); got != 1 {
				t.Errorf("category count = %d, want 1 (report %s)", got, report)
			}
			if report.Dropped() != 1 {
				t.Errorf("dropped %d, want 1", report.Dropped())
			}

			// Lenient Infer succeeds and reports the drop.
			res, err := Infer(n, m, votes, WithSeed(1))
			if err != nil {
				t.Fatalf("lenient Infer failed: %v", err)
			}
			if res.Sanitization.Dropped() != 1 {
				t.Errorf("Result.Sanitization dropped %d, want 1", res.Sanitization.Dropped())
			}
			if len(res.Ranking) != n {
				t.Errorf("ranking incomplete: %v", res.Ranking)
			}
		})
	}
}

func TestValidateVotesAcceptsCleanInput(t *testing.T) {
	if err := ValidateVotes(4, 3, goodVotes()); err != nil {
		t.Fatalf("clean input rejected: %v", err)
	}
	// Conflicting repeat answers are genuine observations, not duplicates.
	votes := append(goodVotes(), Vote{Worker: 0, I: 0, J: 1, PrefersI: false})
	if err := ValidateVotes(4, 3, votes); err != nil {
		t.Errorf("conflicting repeat rejected: %v", err)
	}
	clean, report := SanitizeVotes(4, 3, votes)
	if len(clean) != len(votes) || !report.Clean() {
		t.Errorf("conflicting repeat dropped: %s", report)
	}
}

func TestSanitizeReportString(t *testing.T) {
	_, report := SanitizeVotes(4, 3, append(goodVotes(), Vote{Worker: 9, I: 0, J: 1}))
	s := report.String()
	if !strings.Contains(s, "invalid-worker") {
		t.Errorf("report %q missing category", s)
	}
}

func TestMeasureCoverage(t *testing.T) {
	votes := []Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 1, I: 0, J: 1, PrefersI: true},
		{Worker: 0, I: 1, J: 2, PrefersI: true},
	}
	cov := MeasureCoverage(4, votes)
	if !cov.Degraded() {
		t.Error("object 3 has no votes; coverage should be degraded")
	}
	if len(cov.UncoveredObjects) != 1 || cov.UncoveredObjects[0] != 3 {
		t.Errorf("uncovered = %v, want [3]", cov.UncoveredObjects)
	}
	if cov.ObjectVotes[0] != 2 || cov.ObjectVotes[1] != 3 || cov.ObjectVotes[2] != 1 || cov.ObjectVotes[3] != 0 {
		t.Errorf("object votes = %v", cov.ObjectVotes)
	}
	// Object 1 was compared against 0 and 2: coverage 2/3.
	if got := cov.ObjectCoverage[1]; got < 0.66 || got > 0.67 {
		t.Errorf("object 1 coverage = %v, want 2/3", got)
	}
	if cov.MeanCoverage <= 0 || cov.MeanCoverage >= 1 {
		t.Errorf("mean coverage = %v", cov.MeanCoverage)
	}
	full := MeasureCoverage(2, votes[:1])
	if full.Degraded() || full.MeanCoverage != 1 {
		t.Errorf("complete coverage misreported: %+v", full)
	}
}

// TestInferRecordsEffectiveSeed covers the seed footgun fix: the result
// carries the seed it ran with, and certifying with that seed describes the
// same closure (stable scores), while unseeded calls draw fresh seeds.
func TestInferRecordsEffectiveSeed(t *testing.T) {
	votes := goodVotes()
	res, err := Infer(4, 3, votes, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 42 {
		t.Errorf("Result.Seed = %d, want 42", res.Seed)
	}

	// Unseeded: a time-derived seed is recorded and reusing it reproduces
	// the exact inference.
	r1, err := Infer(4, 3, votes)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seed == 0 {
		t.Error("unseeded Infer recorded no seed")
	}
	r2, err := Infer(4, 3, votes, WithSeed(r1.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if r2.LogProb != r1.LogProb {
		t.Errorf("replaying recorded seed changed LogProb: %v vs %v", r2.LogProb, r1.LogProb)
	}

	// Certifying with the recorded seed is consistent: the certificate's
	// Score equals the certificate of the same ranking on the same closure
	// across repeated calls.
	c1, err := CertifyRanking(4, 3, votes, r1.Ranking, WithSeed(r1.Seed))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CertifyRanking(4, 3, votes, r1.Ranking, WithSeed(r1.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if c1.Score != c2.Score || c1.Gap != c2.Gap {
		t.Errorf("seeded certificates differ: %+v vs %+v", c1, c2)
	}
	if c1.Gap < 0 {
		t.Errorf("negative gap %v", c1.Gap)
	}
}

// TestInferContextCancellation covers the acceptance criterion: an
// already-cancelled context returns promptly with context.Canceled.
func TestInferContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := InferContext(ctx, 4, 3, goodVotes(), WithSeed(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled InferContext took %v", elapsed)
	}
}

// cancelFromCtx is a context whose Err reports context.Canceled from its
// k-th call onward (never when k is 0); calls counts every Err call.
type cancelFromCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *cancelFromCtx) Err() error {
	if n := c.calls.Add(1); c.k > 0 && n >= c.k {
		return context.Canceled
	}
	return nil
}

// TestInferContextChecksBetweenSteps: whichever ctx check first sees the
// cancellation — before Step 1, between steps, or inside a Step 4
// searcher — InferContext returns context.Canceled and never a ranking.
func TestInferContextChecksBetweenSteps(t *testing.T) {
	plan, err := PlanTasksRatio(14, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	round, err := SimulateVotes(plan, DefaultSimConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"heldkarp", []Option{WithSearch(SearchHeldKarp)}},
		{"saps", []Option{WithSearch(SearchSAPS), WithSAPS(10, 1.0, 0.97, 2)}},
		{"branchbound", []Option{WithSearch(SearchBranchBound)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithSeed(7)}, tc.opts...)
			full := &cancelFromCtx{Context: context.Background()}
			if _, err := InferContext(full, plan.N, 30, round.Votes, opts...); err != nil {
				t.Fatal(err)
			}
			calls := full.calls.Load()
			if calls < 4 {
				t.Fatalf("ctx checked %d times, want at least once before each step", calls)
			}
			for k := int64(1); k <= calls; k++ {
				ctx := &cancelFromCtx{Context: context.Background(), k: k}
				res, err := InferContext(ctx, plan.N, 30, round.Votes, opts...)
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("cancelled at check %d of %d: res = %v, err = %v", k, calls, res, err)
				}
			}
		})
	}
}

func TestInferContextDeadline(t *testing.T) {
	// A deadline in the past must abort with DeadlineExceeded even for the
	// heavy SAPS path on a larger instance.
	plan, err := PlanTasksRatio(40, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	round, err := SimulateVotes(plan, DefaultSimConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = InferContext(ctx, plan.N, 30, round.Votes, WithSeed(3), WithSearch(SearchSAPS))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
