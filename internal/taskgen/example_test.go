package taskgen_test

import (
	"fmt"
	"log"
	"math/rand/v2"

	"crowdrank/internal/taskgen"
)

// ExampleGenerate builds a fair task graph for a 10%-of-all-pairs budget.
func ExampleGenerate() {
	rng := rand.New(rand.NewPCG(1, 2))
	l, err := taskgen.PairsForRatio(40, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := taskgen.Generate(40, l, rng)
	if err != nil {
		log.Fatal(err)
	}
	dmin, dmax := plan.Graph.MinMaxDegree()
	fmt.Println("tasks:", plan.L)
	fmt.Println("connected:", plan.Graph.Connected())
	fmt.Println("contains its seed Hamiltonian path:", plan.Graph.IsHamiltonianPath(plan.SeedPath))
	fmt.Println("degree spread at most 1:", dmax-dmin <= 1)
	// Output:
	// tasks: 195
	// connected: true
	// contains its seed Hamiltonian path: true
	// degree spread at most 1: true
}

// ExampleInOutProbability reproduces the paper's Example 4.1.
func ExampleInOutProbability() {
	fmt.Printf("degree 1: %.4f\n", taskgen.InOutProbability(1))
	fmt.Printf("degree 2: %.4f\n", taskgen.InOutProbability(2))
	// Output:
	// degree 1: 0.6667
	// degree 2: 0.2222
}
