package taskgen

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"crowdrank/internal/graph"
)

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xabcdef))
}

func TestPairsForRatio(t *testing.T) {
	l, err := PairsForRatio(100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if l != 495 {
		t.Errorf("r=0.1, n=100: l = %d, want 495", l)
	}
	l, err = PairsForRatio(100, 1)
	if err != nil || l != 4950 {
		t.Errorf("r=1: l = %d, err=%v", l, err)
	}
	// Tiny ratios clamp to the spanning-path minimum n-1.
	l, err = PairsForRatio(100, 0.0001)
	if err != nil || l != 99 {
		t.Errorf("tiny ratio: l = %d, err=%v", l, err)
	}
	if _, err := PairsForRatio(1, 0.5); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := PairsForRatio(10, 0); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := PairsForRatio(10, 1.2); err == nil {
		t.Error("r>1 should fail")
	}
}

func TestInOutProbability(t *testing.T) {
	// Example 4.1: degree 1 -> 2/3, degree 2 -> 2/9.
	if got := InOutProbability(1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("d=1: %v", got)
	}
	if got := InOutProbability(2); math.Abs(got-2.0/9) > 1e-12 {
		t.Errorf("d=2: %v", got)
	}
	if got := InOutProbability(0); got != 2 {
		t.Errorf("d=0: %v (2/3^0 = 2)", got)
	}
	if got := InOutProbability(-1); got != 0 {
		t.Errorf("negative degree: %v", got)
	}
}

func TestHPLikelihoodLowerBound(t *testing.T) {
	// The bound increases with d_min and decreases as d_max grows away
	// from d_min, per Theorem 4.4's discussion.
	b1, err := HPLikelihoodLowerBound(10, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := HPLikelihoodLowerBound(10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b1 <= b2 {
		t.Errorf("bound should grow with regular degree: d=4 %v <= d=2 %v", b1, b2)
	}
	b3, err := HPLikelihoodLowerBound(10, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b3 > b2 {
		t.Errorf("widening the degree range should not raise the bound: %v > %v", b3, b2)
	}
	if b1 < 0 || b1 > 1 {
		t.Errorf("bound outside [0,1]: %v", b1)
	}
	if _, err := HPLikelihoodLowerBound(0, 1, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := HPLikelihoodLowerBound(10, 3, 2); err == nil {
		t.Error("dmax < dmin should fail")
	}
	if b, err := HPLikelihoodLowerBound(10, 0, 0); err != nil || b != 0 {
		t.Errorf("d=0 bound: %v, %v", b, err)
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := newRNG(1)
	if _, err := Generate(1, 0, rng); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := Generate(5, 3, rng); err == nil {
		t.Error("l < n-1 should fail")
	}
	if _, err := Generate(5, 11, rng); err == nil {
		t.Error("l > C(n,2) should fail")
	}
	if _, err := Generate(5, 4, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestGenerateStructure(t *testing.T) {
	tests := []struct {
		name string
		n, l int
	}{
		{"spanningPathOnly", 10, 9},
		{"sparse", 30, 60},
		{"ratio10pct", 100, 495},
		{"ratio50pct", 40, 390},
		{"complete", 12, 66},
		{"nearComplete", 12, 65},
		{"tiny", 2, 1},
		{"three", 3, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Generate(tc.n, tc.l, newRNG(42))
			if err != nil {
				t.Fatal(err)
			}
			g := plan.Graph
			if g.M() != tc.l {
				t.Errorf("edges = %d, want %d", g.M(), tc.l)
			}
			if !g.Connected() {
				t.Error("task graph must be connected")
			}
			if !g.IsHamiltonianPath(plan.SeedPath) {
				t.Error("seed path must remain a Hamiltonian path")
			}
			if plan.TargetDegree != 2*tc.l/tc.n {
				t.Errorf("TargetDegree = %d", plan.TargetDegree)
			}
			if len(plan.Pairs()) != tc.l {
				t.Errorf("Pairs() length = %d", len(plan.Pairs()))
			}
		})
	}
}

func TestGenerateFairness(t *testing.T) {
	// With l comfortably above n-1, the degree spread must be tight
	// (Theorem 4.1's fairness): every degree within 1 of 2l/n in the
	// divisible cases we test, within 2 otherwise.
	tests := []struct {
		n, l, maxSpread int
	}{
		{20, 40, 2},  // target degree 4
		{50, 250, 2}, // target degree 10
		{100, 495, 2},
		{30, 435, 0}, // complete graph: exactly regular
	}
	for _, tc := range tests {
		plan, err := Generate(tc.n, tc.l, newRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		dmin, dmax := plan.Graph.MinMaxDegree()
		if dmax-dmin > tc.maxSpread {
			t.Errorf("n=%d l=%d: degree spread %d..%d exceeds %d",
				tc.n, tc.l, dmin, dmax, tc.maxSpread)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(30, 90, newRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(30, 90, newRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestGenerateQuickInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, lRaw uint16) bool {
		n := int(nRaw%60) + 2
		maxL := MaxPairs(n)
		span := maxL - (n - 1)
		l := n - 1
		if span > 0 {
			l += int(lRaw) % (span + 1)
		}
		plan, err := Generate(n, l, newRNG(seed))
		if err != nil {
			return false
		}
		g := plan.Graph
		if g.M() != l || !g.Connected() || !g.IsHamiltonianPath(plan.SeedPath) {
			return false
		}
		// Degrees must sum to 2l.
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGenerateDegreeSpreadQuick(t *testing.T) {
	// For budgets at least 2(n-1) (so the HP seed cannot force imbalance),
	// the spread should stay small.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 8
		l := 3 * n // target degree 6
		if l > MaxPairs(n) {
			l = MaxPairs(n)
		}
		plan, err := Generate(n, l, newRNG(seed))
		if err != nil {
			return false
		}
		dmin, dmax := plan.Graph.MinMaxDegree()
		return dmax-dmin <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxPairs(t *testing.T) {
	if MaxPairs(1) != 0 || MaxPairs(2) != 1 || MaxPairs(5) != 10 {
		t.Error("MaxPairs wrong")
	}
}

func TestPlanPairsAreCanonicalAndUnique(t *testing.T) {
	plan, err := Generate(25, 100, newRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.Pair]bool)
	for _, p := range plan.Pairs() {
		if p.I >= p.J {
			t.Fatalf("pair %v not canonical", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}
