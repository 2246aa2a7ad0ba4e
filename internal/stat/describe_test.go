package stat

import (
	"math"
	"testing"
)

func TestMeanVarianceStdDev(t *testing.T) {
	tests := []struct {
		name           string
		xs             []float64
		mean, variance float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 0},
		{"pair", []float64{2, 4}, 3, 1},
		{"symmetric", []float64{-1, 0, 1}, 0, 2.0 / 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.xs); !almostEqual(got, tc.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tc.mean)
			}
			if got := Variance(tc.xs); !almostEqual(got, tc.variance, 1e-12) {
				t.Errorf("Variance = %v, want %v", got, tc.variance)
			}
			if got := StdDev(tc.xs); !almostEqual(got, math.Sqrt(tc.variance), 1e-12) {
				t.Errorf("StdDev = %v, want %v", got, math.Sqrt(tc.variance))
			}
		})
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range tests {
		if got := Median(tc.xs); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax of empty slice should panic")
		}
	}()
	MinMax(nil)
}
