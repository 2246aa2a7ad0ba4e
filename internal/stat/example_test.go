package stat_test

import (
	"fmt"
	"log"

	"crowdrank/internal/stat"
)

// ExampleChiSquareQuantile computes the percentile truth discovery uses in
// Equation 5: the alpha/2 quantile with |T_k| degrees of freedom.
func ExampleChiSquareQuantile() {
	q, err := stat.ChiSquareQuantile(0.025, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chi2(0.025, 10) = %.4f\n", q)
	// Output:
	// chi2(0.025, 10) = 3.2470
}

// ExampleGammaP evaluates the regularized lower incomplete gamma function,
// the CDF backbone of the chi-square machinery.
func ExampleGammaP() {
	p, err := stat.GammaP(1, 1) // Gamma(1,1) is Exp(1): P = 1 - e^-1
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(1,1) = %.6f\n", p)
	// Output:
	// P(1,1) = 0.632121
}

// ExampleNormalQuantile inverts the standard normal CDF.
func ExampleNormalQuantile() {
	fmt.Printf("z(0.975) = %.4f\n", stat.NormalQuantile(0.975))
	// Output:
	// z(0.975) = 1.9600
}
