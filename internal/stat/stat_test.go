package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestGammaPKnownValues(t *testing.T) {
	// Reference values from the identity P(1, x) = 1 - e^-x and published
	// tables for other shapes.
	tests := []struct {
		name string
		a, x float64
		want float64
	}{
		{"exp1", 1, 1, 1 - math.Exp(-1)},
		{"exp2", 1, 2, 1 - math.Exp(-2)},
		{"halfDf", 0.5, 0.5, 0.6826894921370859}, // chi2 CDF(1, df=1)
		{"shape2", 2, 2, 1 - 3*math.Exp(-2)},     // P(2,x) = 1-(1+x)e^-x
		{"shape5mid", 5, 5, 0.5595067149347875},
		{"largeA", 100, 100, 0.5132987982791087},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := GammaP(tc.a, tc.x)
			if err != nil {
				t.Fatalf("GammaP(%v,%v): %v", tc.a, tc.x, err)
			}
			if !almostEqual(got, tc.want, 1e-10) {
				t.Errorf("GammaP(%v,%v) = %.15f, want %.15f", tc.a, tc.x, got, tc.want)
			}
		})
	}
}

func TestGammaPEdgeCases(t *testing.T) {
	if _, err := GammaP(0, 1); err == nil {
		t.Error("GammaP(0,1) should fail")
	}
	if _, err := GammaP(1, -1); err == nil {
		t.Error("GammaP(1,-1) should fail")
	}
	got, err := GammaP(3, 0)
	if err != nil || got != 0 {
		t.Errorf("GammaP(3,0) = %v, %v; want 0, nil", got, err)
	}
	got, err = GammaP(3, math.Inf(1))
	if err != nil || got != 1 {
		t.Errorf("GammaP(3,Inf) = %v, %v; want 1, nil", got, err)
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	tests := []struct {
		x, df, want float64
	}{
		{1, 1, 0.6826894921370859}, // P(|Z|<1)
		{4, 1, 0.9544997361036416}, // P(|Z|<2)
		{2, 2, 1 - math.Exp(-1)},   // chi2(2) is Exp(1/2)
		{10, 10, 0.5595067149347875},
	}
	for _, tc := range tests {
		got, err := ChiSquareCDF(tc.x, tc.df)
		if err != nil {
			t.Fatalf("ChiSquareCDF(%v,%v): %v", tc.x, tc.df, err)
		}
		if !almostEqual(got, tc.want, 1e-10) {
			t.Errorf("ChiSquareCDF(%v,%v) = %.15f, want %.15f", tc.x, tc.df, got, tc.want)
		}
	}
}

func TestChiSquareQuantileKnownValues(t *testing.T) {
	// Classical chi-square table values.
	tests := []struct {
		p, df, want, tol float64
	}{
		{0.95, 1, 3.841458820694124, 1e-8},
		{0.95, 10, 18.307038053275146, 1e-8},
		{0.05, 10, 3.9402991361190605, 1e-8},
		{0.025, 1, 0.0009820691171752583, 1e-10},
		{0.025, 30, 16.790772251764078, 1e-7},
		{0.5, 2, 2 * math.Ln2, 1e-9},
	}
	for _, tc := range tests {
		got, err := ChiSquareQuantile(tc.p, tc.df)
		if err != nil {
			t.Fatalf("ChiSquareQuantile(%v,%v): %v", tc.p, tc.df, err)
		}
		if !almostEqual(got, tc.want, tc.tol) {
			t.Errorf("ChiSquareQuantile(%v,%v) = %.12f, want %.12f", tc.p, tc.df, got, tc.want)
		}
	}
}

func TestChiSquareQuantileInvertsCDF(t *testing.T) {
	// Property: CDF(Quantile(p)) = p across the range truth discovery uses.
	f := func(pRaw uint16, dfRaw uint8) bool {
		p := 0.001 + 0.998*float64(pRaw)/65535
		df := float64(dfRaw%200) + 1
		x, err := ChiSquareQuantile(p, df)
		if err != nil {
			return false
		}
		back, err := ChiSquareCDF(x, df)
		if err != nil {
			return false
		}
		return almostEqual(back, p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChiSquareQuantileMonotoneInP(t *testing.T) {
	df := 17.0
	prev := 0.0
	for p := 0.01; p < 1; p += 0.01 {
		x, err := ChiSquareQuantile(p, df)
		if err != nil {
			t.Fatalf("quantile(%v): %v", p, err)
		}
		if x <= prev {
			t.Fatalf("quantile not monotone at p=%v: %v <= %v", p, x, prev)
		}
		prev = x
	}
}

func TestChiSquareQuantileLargeDf(t *testing.T) {
	// The large-df shortcut must stay close to the Newton-refined value:
	// compare Wilson-Hilferty at df=5001 against the refined value at
	// df=4999 (continuity check) and against the normal approximation
	// mean +- z*sd.
	for _, p := range []float64{0.025, 0.5, 0.975} {
		got, err := ChiSquareQuantile(p, 20000)
		if err != nil {
			t.Fatalf("quantile large df: %v", err)
		}
		z := NormalQuantile(p)
		approx := 20000 + z*math.Sqrt(2*20000)
		if math.Abs(got-approx) > 25 { // within a few units of the sd-scale approx
			t.Errorf("p=%v: got %v, normal approx %v", p, got, approx)
		}
	}
}

func TestChiSquareQuantileErrors(t *testing.T) {
	if _, err := ChiSquareQuantile(0.5, 0); err == nil {
		t.Error("df=0 should fail")
	}
	if _, err := ChiSquareQuantile(-0.1, 3); err == nil {
		t.Error("p<0 should fail")
	}
	if _, err := ChiSquareQuantile(1.1, 3); err == nil {
		t.Error("p>1 should fail")
	}
	if x, err := ChiSquareQuantile(0, 3); err != nil || x != 0 {
		t.Errorf("p=0: got %v, %v", x, err)
	}
	if x, err := ChiSquareQuantile(1, 3); err != nil || !math.IsInf(x, 1) {
		t.Errorf("p=1: got %v, %v", x, err)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
		{0.0013498980316300933, -3},
	}
	for _, tc := range tests {
		got := NormalQuantile(tc.p)
		if !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("NormalQuantile(%v) = %.12f, want %.12f", tc.p, got, tc.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(raw uint32) bool {
		p := 1e-6 + (1-2e-6)*float64(raw)/math.MaxUint32
		z := NormalQuantile(p)
		return almostEqual(NormalCDF(z), p, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) || !math.IsNaN(NormalQuantile(1.5)) {
		t.Error("out-of-range p should be NaN")
	}
}

func TestChiSquarePDFMatchesCDFDerivative(t *testing.T) {
	const h = 1e-6
	for _, df := range []float64{1, 3, 7.5, 20} {
		for _, x := range []float64{0.5, 2, 10, 30} {
			hi, err := ChiSquareCDF(x+h, df)
			if err != nil {
				t.Fatal(err)
			}
			lo, err := ChiSquareCDF(x-h, df)
			if err != nil {
				t.Fatal(err)
			}
			numeric := (hi - lo) / (2 * h)
			got := ChiSquarePDF(x, df)
			if math.Abs(numeric-got) > 1e-5*(1+got) {
				t.Errorf("df=%v x=%v: pdf=%v, numeric derivative=%v", df, x, got, numeric)
			}
		}
	}
}
