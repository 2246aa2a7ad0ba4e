package kendall

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func mustDistance(t *testing.T, a, b []int) float64 {
	t.Helper()
	d, err := Distance(a, b)
	if err != nil {
		t.Fatalf("Distance(%v,%v): %v", a, b, err)
	}
	return d
}

func TestDistanceKnownValues(t *testing.T) {
	tests := []struct {
		name string
		a, b []int
		want float64
	}{
		{"identical", []int{0, 1, 2, 3}, []int{0, 1, 2, 3}, 0},
		{"reversed", []int{0, 1, 2, 3}, []int{3, 2, 1, 0}, 1},
		{"oneSwap", []int{0, 1, 2}, []int{1, 0, 2}, 1.0 / 3},
		{"twoObjects", []int{0, 1}, []int{1, 0}, 1},
		{"single", []int{0}, []int{0}, 0},
		{"middle", []int{0, 1, 2, 3}, []int{0, 2, 1, 3}, 1.0 / 6},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustDistance(t, tc.a, tc.b); !almost(got, tc.want) {
				t.Errorf("Distance = %v, want %v", got, tc.want)
			}
		})
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestDistanceErrors(t *testing.T) {
	if _, err := Distance([]int{0, 1}, []int{0}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Distance([]int{0, 0}, []int{0, 1}); err == nil {
		t.Error("duplicate object should fail")
	}
	if _, err := Distance([]int{0, 2}, []int{0, 1}); err == nil {
		t.Error("out-of-range object should fail")
	}
}

func randomPerm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

func TestKnightMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.IntN(40)
		a, b := randomPerm(rng, n), randomPerm(rng, n)
		fast := mustDistance(t, a, b)
		slow, err := DistanceNaive(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(fast, slow) {
			t.Fatalf("n=%d: Knight=%v naive=%v (a=%v b=%v)", n, fast, slow, a, b)
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(20)
		a, b, c := randomPerm(rng, n), randomPerm(rng, n), randomPerm(rng, n)
		dab := mustDistance(t, a, b)
		dba := mustDistance(t, b, a)
		dac := mustDistance(t, a, c)
		dcb := mustDistance(t, c, b)
		if !almost(dab, dba) {
			t.Fatalf("symmetry violated: %v vs %v", dab, dba)
		}
		if dab < 0 || dab > 1 {
			t.Fatalf("distance out of [0,1]: %v", dab)
		}
		if mustDistance(t, a, a) != 0 {
			t.Fatal("identity distance nonzero")
		}
		if dab > dac+dcb+1e-12 {
			t.Fatalf("triangle inequality violated: d(a,b)=%v > %v", dab, dac+dcb)
		}
	}
}

func TestTauAndAccuracyRelations(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(30)
		a, b := randomPerm(rng, n), randomPerm(rng, n)
		d := mustDistance(t, a, b)
		acc, err := Accuracy(a, b)
		if err != nil {
			t.Fatal(err)
		}
		tau, err := Tau(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(acc, 1-d) {
			t.Fatalf("accuracy != 1-d: %v vs %v", acc, 1-d)
		}
		if !almost(tau, 1-2*d) {
			t.Fatalf("tau != 1-2d: %v vs %v", tau, 1-2*d)
		}
	}
}

func TestSpearmanRho(t *testing.T) {
	a := []int{0, 1, 2, 3, 4}
	if rho, _ := SpearmanRho(a, a); !almost(rho, 1) {
		t.Errorf("rho self = %v", rho)
	}
	rev := []int{4, 3, 2, 1, 0}
	if rho, _ := SpearmanRho(a, rev); !almost(rho, -1) {
		t.Errorf("rho reversal = %v", rho)
	}
}

func TestTopKOverlap(t *testing.T) {
	a := []int{0, 1, 2, 3, 4}
	b := []int{1, 0, 4, 3, 2}
	if got, _ := TopKOverlap(a, b, 2); !almost(got, 1) {
		t.Errorf("top-2 overlap = %v, want 1", got)
	}
	if got, _ := TopKOverlap(a, b, 3); !almost(got, 2.0/3) {
		t.Errorf("top-3 overlap = %v, want 2/3", got)
	}
	if _, err := TopKOverlap(a, b, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := TopKOverlap(a, b, 6); err == nil {
		t.Error("k>n should fail")
	}
}

func TestValidatePermutationQuick(t *testing.T) {
	// Every rng.Perm output validates; every shifted copy fails.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := rand.New(rand.NewPCG(seed, 1))
		p := rng.Perm(n)
		if ValidatePermutation(p) != nil {
			return false
		}
		bad := append([]int(nil), p...)
		bad[0] = n // out of range
		return ValidatePermutation(bad) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistanceRandomExpectation(t *testing.T) {
	// Independent random permutations should have distance near 0.5.
	rng := rand.New(rand.NewPCG(21, 22))
	sum := 0.0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		a, b := randomPerm(rng, 50), randomPerm(rng, 50)
		sum += mustDistance(t, a, b)
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean distance of random perms = %v, want ~0.5", mean)
	}
}

func TestKnightLargeScale(t *testing.T) {
	// O(n log n) implementation must handle large rankings quickly and
	// agree with the closed-form distance of a full reversal.
	n := 100000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = i
		b[n-1-i] = i
	}
	d := mustDistance(t, a, b)
	if d != 1 {
		t.Errorf("reversal distance = %v", d)
	}
}
