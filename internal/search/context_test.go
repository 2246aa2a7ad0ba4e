package search

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestSAPSContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := randomTournament(t, 20, newRNG(1))
	start := time.Now()
	_, err := SAPSContext(ctx, g, DefaultSAPSParams(), newRNG(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled SAPS took %v", elapsed)
	}
}

func TestSAPSContextCancelMidRun(t *testing.T) {
	// A deadline that expires mid-anneal must stop the run; the per-iteration
	// poll means even a huge iteration budget returns quickly.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	g := randomTournament(t, 40, newRNG(3))
	p := DefaultSAPSParams()
	p.Iterations = 50_000_000
	p.Cooling = 0.999999
	start := time.Now()
	_, err := SAPSContext(ctx, g, p, newRNG(4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("mid-run cancellation took %v", elapsed)
	}
}

func TestSAPSContextBackgroundMatchesPlain(t *testing.T) {
	g := randomTournament(t, 12, newRNG(5))
	a, err := SAPS(g, DefaultSAPSParams(), newRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SAPSContext(context.Background(), randomTournament(t, 12, newRNG(5)), DefaultSAPSParams(), newRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if a.LogProb != b.LogProb {
		t.Errorf("context wrapper changed result: %v vs %v", a.LogProb, b.LogProb)
	}
}

func TestBranchAndBoundContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := randomTournament(t, 15, newRNG(7))
	_, err := BranchAndBoundContext(ctx, g, BranchAndBoundParams{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBranchAndBoundContextCancelMidRun(t *testing.T) {
	// Random tournaments prune poorly, so n = 22 gives the node-poll a
	// chance to fire well before the search finishes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	g := randomTournament(t, 22, newRNG(8))
	start := time.Now()
	_, err := BranchAndBoundContext(ctx, g, BranchAndBoundParams{MaxSteps: math.MaxInt})
	if err == nil {
		t.Skip("instance solved before the deadline; nothing to cancel")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("mid-run cancellation took %v", elapsed)
	}
}

func TestBranchAndBoundContextBackgroundMatchesPlain(t *testing.T) {
	g := orderedTournament(t, 10, 0.8)
	a, err := BranchAndBound(g, BranchAndBoundParams{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BranchAndBoundContext(context.Background(), orderedTournament(t, 10, 0.8), BranchAndBoundParams{})
	if err != nil {
		t.Fatal(err)
	}
	if a.LogProb != b.LogProb {
		t.Errorf("context wrapper changed result: %v vs %v", a.LogProb, b.LogProb)
	}
}

// flipCtx is a context whose Err reports DeadlineExceeded from call
// after+1 on, and counts every call: a deterministic stand-in for a
// deadline expiring mid-search, with no timers or sleeps.
type flipCtx struct {
	context.Context
	after, calls int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// TestBranchAndBoundPollsByWork: between two context polls the DFS does
// exactly bbPollSteps pair steps, whatever n is, so a full run polls once
// up front and once per bbPollSteps of the work it reports.
func TestBranchAndBoundPollsByWork(t *testing.T) {
	ctx := &flipCtx{Context: context.Background(), after: math.MaxInt}
	res, err := BranchAndBoundContext(ctx, randomTournament(t, 13, newRNG(11)), BranchAndBoundParams{})
	if err != nil {
		t.Fatal(err)
	}
	polls := res.Evaluations / bbPollSteps
	if polls < 2 {
		t.Fatalf("instance too easy to exercise polling: %d pair steps", res.Evaluations)
	}
	if ctx.calls != 1+polls {
		t.Fatalf("%d pair steps polled ctx %d times, want %d", res.Evaluations, ctx.calls, 1+polls)
	}
}

// TestBranchAndBoundStopsAtFirstPollAfterDeadline: at n = 200, where one
// node costs tens of thousands of pair steps, the search still returns at
// the first poll after the deadline passes — so, with the cadence above,
// within bbPollSteps pair steps of it — and reports the deadline.
func TestBranchAndBoundStopsAtFirstPollAfterDeadline(t *testing.T) {
	g := randomTournament(t, 200, newRNG(12))
	for _, after := range []int{1, 2, 5} {
		ctx := &flipCtx{Context: context.Background(), after: after}
		_, err := BranchAndBoundContext(ctx, g, BranchAndBoundParams{MaxSteps: math.MaxInt})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("after %d polls: err = %v, want context.DeadlineExceeded", after, err)
		}
		if ctx.calls != after+1 {
			t.Fatalf("deadline passed at poll %d, search stopped at poll %d", after+1, ctx.calls)
		}
	}
}
