package search

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"crowdrank/internal/graph"
)

func TestBranchAndBoundMatchesHeldKarp(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := newRNG(uint64(trial + 7000))
		n := 4 + rng.IntN(10)
		g := randomTournament(t, n, rng)
		exact, err := HeldKarp(g, 0, ObjectiveAllPairs)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := BranchAndBound(g, BranchAndBoundParams{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bb.LogProb-exact.LogProb) > 1e-9 {
			t.Fatalf("n=%d: BnB %v != Held-Karp %v", n, bb.LogProb, exact.LogProb)
		}
	}
}

func TestBranchAndBoundBeyondHeldKarp(t *testing.T) {
	// On a near-consistent 30-object tournament (the pipeline's regime) the
	// bound prunes enough to prove optimality, and SAPS must not beat it.
	rng := newRNG(42)
	n := 30
	g, err := buildNoisyOrdered(n, 0.9, 0.03, rng)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := BranchAndBound(g, BranchAndBoundParams{})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSAPSParams()
	p.Iterations = 400
	sa, err := SAPS(g, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sa.LogProb > bb.LogProb+1e-9 {
		t.Fatalf("SAPS %v beat the proven optimum %v", sa.LogProb, bb.LogProb)
	}
	if bb.Evaluations <= 0 {
		t.Error("node count missing")
	}
}

func TestBranchAndBoundWorkCap(t *testing.T) {
	// A fully random (cycle-heavy) tournament at n=20 with a two-poll cap
	// must refuse rather than return an unproven answer, and must stop at
	// the first poll past the cap.
	g := randomTournament(t, 20, newRNG(9))
	const maxSteps = 2 * bbPollSteps
	res, err := BranchAndBound(g, BranchAndBoundParams{MaxSteps: maxSteps})
	if !errors.Is(err, ErrWorkCap) {
		t.Fatalf("err = %v, want ErrWorkCap", err)
	}
	if res == nil || res.Evaluations < maxSteps || res.Evaluations >= maxSteps+bbPollSteps {
		t.Fatalf("cap %d: stopped after %+v, want within one poll interval past it", maxSteps, res)
	}
	floor, err := Greedy(g, ObjectiveAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogProb < floor.LogProb {
		t.Fatalf("capped incumbent %v scores below the floor %v", res.LogProb, floor.LogProb)
	}
}

// TestBranchAndBoundWorkCapIgnoresDeadline: the cap counts work, so a
// capped and an uncapped-but-proven outcome — error or path, and the
// steps spent — are the same with no deadline and with a distant one.
func TestBranchAndBoundWorkCapIgnoresDeadline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *graph.PreferenceGraph
		maxSteps int
		wantErr  error
	}{
		{"capped", randomTournament(t, 20, newRNG(9)), 3 * bbPollSteps, ErrWorkCap},
		{"proven", randomTournament(t, 13, newRNG(11)), 1 << 30, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := BranchAndBoundParams{MaxSteps: tc.maxSteps}
			plain, plainErr := BranchAndBound(tc.g, p)
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			timed, timedErr := BranchAndBoundContext(ctx, tc.g, p)
			if !errors.Is(plainErr, tc.wantErr) || !errors.Is(timedErr, tc.wantErr) {
				t.Fatalf("err = %v without a deadline, %v with one; want %v", plainErr, timedErr, tc.wantErr)
			}
			if plain.Evaluations != timed.Evaluations || !slices.Equal(plain.Path, timed.Path) {
				t.Fatalf("outcomes differ: %d steps %v vs %d steps %v", plain.Evaluations, plain.Path, timed.Evaluations, timed.Path)
			}
		})
	}
}

// TestBranchAndBoundIncumbentFloorChangesNothing: seeding the search with
// the polished floor, which it would start from anyway, leaves the answer
// and the work unchanged, capped or not.
func TestBranchAndBoundIncumbentFloorChangesNothing(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := newRNG(uint64(trial + 7100))
		n := 4 + rng.IntN(12)
		g := randomTournament(t, n, rng)
		floor, err := Greedy(g, ObjectiveAllPairs)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxSteps := range []int{0, bbPollSteps} {
			cold, coldErr := BranchAndBound(g, BranchAndBoundParams{MaxSteps: maxSteps})
			seeded, seededErr := BranchAndBound(g, BranchAndBoundParams{MaxSteps: maxSteps, Incumbent: floor.Path})
			if !errors.Is(seededErr, coldErr) {
				t.Fatalf("n=%d cap %d: err %v seeded, %v cold", n, maxSteps, seededErr, coldErr)
			}
			if coldErr != nil && !errors.Is(coldErr, ErrWorkCap) {
				t.Fatal(coldErr)
			}
			if !slices.Equal(cold.Path, seeded.Path) || cold.LogProb != seeded.LogProb || cold.Evaluations != seeded.Evaluations {
				t.Fatalf("n=%d cap %d: seeded %v (%v, %d steps) != cold %v (%v, %d steps)", n, maxSteps,
					seeded.Path, seeded.LogProb, seeded.Evaluations, cold.Path, cold.LogProb, cold.Evaluations)
			}
		}
	}
}

func TestBranchAndBoundIncumbentValidation(t *testing.T) {
	g := orderedTournament(t, 4, 0.8)
	for _, bad := range [][]int{{}, {0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 4}} {
		if _, err := BranchAndBound(g, BranchAndBoundParams{Incumbent: bad}); err == nil {
			t.Errorf("incumbent %v should be refused", bad)
		}
	}
	// A poor incumbent is replaced by the optimum.
	res, err := BranchAndBound(g, BranchAndBoundParams{Incumbent: []int{3, 2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Path, []int{0, 1, 2, 3}) {
		t.Fatalf("got %v, want the identity order", res.Path)
	}
}

func TestBranchAndBoundValidation(t *testing.T) {
	g, err := graph.NewPreferenceGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := BranchAndBound(g, BranchAndBoundParams{}); err == nil {
		t.Error("incomplete graph should fail")
	}
}

// buildNoisyOrdered builds a tournament mostly consistent with the identity
// order: forward weight `strength` with a `flip` fraction of pairs
// inverted.
func buildNoisyOrdered(n int, strength, flip float64, rng interface{ Float64() float64 }) (*graph.PreferenceGraph, error) {
	g, err := graph.NewPreferenceGraph(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := strength
			if rng.Float64() < flip {
				w = 1 - strength
			}
			if err := g.SetWeight(i, j, w); err != nil {
				return nil, err
			}
			if err := g.SetWeight(j, i, 1-w); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func TestCertify(t *testing.T) {
	g := orderedTournament(t, 6, 0.9)
	identity := []int{0, 1, 2, 3, 4, 5}
	cert, err := Certify(g, identity)
	if err != nil {
		t.Fatal(err)
	}
	// On a perfectly consistent tournament the identity order attains the
	// bound exactly: gap zero proves optimality.
	if math.Abs(cert.Gap) > 1e-9 {
		t.Errorf("identity on consistent tournament should certify optimal, gap = %v", cert.Gap)
	}
	// The reversed order has a large certified gap.
	reversed := []int{5, 4, 3, 2, 1, 0}
	rc, err := Certify(g, reversed)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Gap <= cert.Gap {
		t.Errorf("reversed order should have a larger gap: %v <= %v", rc.Gap, cert.Gap)
	}
	// Gap upper-bounds the true optimality gap: exact optimum score must
	// lie within [Score, UpperBound].
	exact, err := HeldKarp(g, 0, ObjectiveAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if exact.LogProb > rc.UpperBound+1e-9 || exact.LogProb < rc.Score-1e-9 {
		t.Errorf("optimum %v outside certificate range [%v, %v]", exact.LogProb, rc.Score, rc.UpperBound)
	}
	if _, err := Certify(g, []int{0, 1}); err == nil {
		t.Error("short path should fail")
	}
	if _, err := Certify(g, []int{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("non-permutation should fail")
	}
}
