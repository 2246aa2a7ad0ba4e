package platform

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"crowdrank/internal/graph"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 8)) }

// fixedOracle answers deterministically: prefers the lower object id.
type fixedOracle struct{ workers int }

func (o fixedOracle) Answer(_, i, j int) bool { return i < j }
func (o fixedOracle) Workers() int            { return o.workers }

func somePairs(k int) []graph.Pair {
	out := make([]graph.Pair, k)
	for i := range out {
		out[i] = graph.Pair{I: i, J: i + 1}
	}
	return out
}

func TestBudgetMaxTasks(t *testing.T) {
	b := Budget{Total: 12.5, Reward: 0.025, WorkersPerTask: 10}
	l, err := b.MaxTasks()
	if err != nil || l != 50 {
		t.Fatalf("MaxTasks = %d, %v; want 50", l, err)
	}
	if got := b.Cost(50); math.Abs(got-12.5) > 1e-9 {
		t.Errorf("Cost(50) = %v", got)
	}
	if _, err := (Budget{Total: -1, Reward: 1, WorkersPerTask: 1}).MaxTasks(); err == nil {
		t.Error("negative budget should fail")
	}
	if _, err := (Budget{Total: 1, Reward: 0, WorkersPerTask: 1}).MaxTasks(); err == nil {
		t.Error("zero reward should fail")
	}
	if _, err := (Budget{Total: 1, Reward: 1, WorkersPerTask: 0}).MaxTasks(); err == nil {
		t.Error("zero workers should fail")
	}
	if l, err := (Budget{Total: 0.99, Reward: 0.5, WorkersPerTask: 1}).MaxTasks(); err != nil || l != 1 {
		t.Errorf("MaxTasks rounds down: got %d, %v; want 1", l, err)
	}
	if l, err := (Budget{Total: 0, Reward: 0.1, WorkersPerTask: 5}).MaxTasks(); err != nil || l != 0 {
		t.Errorf("zero budget: got %d, %v; want 0", l, err)
	}
}

func TestPackHITs(t *testing.T) {
	pairs := somePairs(7)
	hits, err := PackHITs(pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 || len(hits[0].Pairs) != 3 || len(hits[2].Pairs) != 1 {
		t.Fatalf("HITs = %+v", hits)
	}
	total := 0
	for i, h := range hits {
		if h.ID != i {
			t.Errorf("HIT %d has ID %d", i, h.ID)
		}
		total += len(h.Pairs)
	}
	if total != 7 {
		t.Errorf("packed %d pairs", total)
	}
	if _, err := PackHITs(pairs, 0); err == nil {
		t.Error("perHIT=0 should fail")
	}
	if hits, err := PackHITs(nil, 3); err != nil || len(hits) != 0 {
		t.Errorf("empty pairs: %v, %v", hits, err)
	}
}

func TestAssignWorkers(t *testing.T) {
	hits, _ := PackHITs(somePairs(6), 2)
	assigned, err := AssignWorkers(hits, 10, 4, newRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) != len(hits) {
		t.Fatal("assignment length mismatch")
	}
	for _, workers := range assigned {
		if len(workers) != 4 {
			t.Fatalf("HIT got %d workers", len(workers))
		}
		seen := map[int]bool{}
		for _, w := range workers {
			if w < 0 || w >= 10 || seen[w] {
				t.Fatal("invalid or duplicate worker in one HIT")
			}
			seen[w] = true
		}
	}
	if _, err := AssignWorkers(hits, 3, 4, newRNG(1)); err == nil {
		t.Error("w > m should fail")
	}
	if _, err := AssignWorkers(hits, 3, 0, newRNG(1)); err == nil {
		t.Error("w=0 should fail")
	}
	if _, err := AssignWorkers(hits, 3, 2, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestRunNonInteractive(t *testing.T) {
	hits, _ := PackHITs(somePairs(5), 2)
	assigned, _ := AssignWorkers(hits, 6, 3, newRNG(2))
	round, err := RunNonInteractive(hits, assigned, fixedOracle{workers: 6}, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Votes) != 5*3 {
		t.Fatalf("votes = %d, want 15", len(round.Votes))
	}
	wantSpent := float64(5*3) * 0.025
	if math.Abs(round.Spent-wantSpent) > 1e-9 {
		t.Errorf("spent = %v, want %v", round.Spent, wantSpent)
	}
	for _, v := range round.Votes {
		if !v.PrefersI { // fixedOracle always prefers the lower id, and pairs are (i, i+1)
			t.Fatalf("vote %+v should prefer I", v)
		}
	}
	if _, err := RunNonInteractive(hits, assigned[:1], fixedOracle{workers: 6}, 0.025); err == nil {
		t.Error("assignment/hit length mismatch should fail")
	}
	if _, err := RunNonInteractive(hits, assigned, nil, 0.025); err == nil {
		t.Error("nil oracle should fail")
	}
	if _, err := RunNonInteractive(hits, assigned, fixedOracle{workers: 6}, -1); err == nil {
		t.Error("negative reward should fail")
	}
	bad := [][]int{{9}, {0}, {0}}
	if _, err := RunNonInteractive(hits, bad, fixedOracle{workers: 6}, 0.025); err == nil {
		t.Error("unknown worker should fail")
	}
}

func TestInteractiveSessionBudgetEnforcement(t *testing.T) {
	budget := Budget{Total: 1.0, Reward: 0.1, WorkersPerTask: 2} // 5 tasks affordable
	s, err := NewInteractiveSession(fixedOracle{workers: 5}, budget, 10*time.Second, newRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	for s.CanAfford() {
		votes, err := s.Ask(asked%4, (asked+1)%4+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(votes) != 2 {
			t.Fatalf("got %d votes per round", len(votes))
		}
		asked++
		if asked > 100 {
			t.Fatal("budget never exhausted")
		}
	}
	if asked != 5 {
		t.Errorf("asked %d rounds, want 5", asked)
	}
	if s.Rounds() != 5 || math.Abs(s.Spent()-1.0) > 1e-9 {
		t.Errorf("rounds=%d spent=%v", s.Rounds(), s.Spent())
	}
	if s.SimulatedLatency() != 50*time.Second {
		t.Errorf("latency = %v, want 50s", s.SimulatedLatency())
	}
	if len(s.Votes()) != 10 {
		t.Errorf("total votes = %d", len(s.Votes()))
	}
	if math.Abs(s.Remaining()) > 1e-9 {
		t.Errorf("remaining = %v", s.Remaining())
	}
	if _, err := s.Ask(0, 1); err == nil {
		t.Error("over-budget Ask should fail")
	}
}

func TestInteractiveSessionValidation(t *testing.T) {
	budget := Budget{Total: 1, Reward: 0.1, WorkersPerTask: 2}
	if _, err := NewInteractiveSession(nil, budget, 0, newRNG(1)); err == nil {
		t.Error("nil oracle should fail")
	}
	if _, err := NewInteractiveSession(fixedOracle{workers: 3}, budget, 0, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := NewInteractiveSession(fixedOracle{workers: 3}, Budget{Total: 1, Reward: 0, WorkersPerTask: 1}, 0, newRNG(1)); err == nil {
		t.Error("bad budget should fail")
	}
	if _, err := NewInteractiveSession(fixedOracle{workers: 3}, budget, -time.Second, newRNG(1)); err == nil {
		t.Error("negative latency should fail")
	}
	s, err := NewInteractiveSession(fixedOracle{workers: 1}, budget, 0, newRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(0, 0); err == nil {
		t.Error("self comparison should fail")
	}
	if _, err := s.Ask(0, 1); err == nil {
		t.Error("w > m should fail at Ask time")
	}
}
