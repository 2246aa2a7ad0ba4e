package smooth_test

import (
	"fmt"
	"log"
	"math/rand/v2"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/smooth"
	"crowdrank/internal/truth"
)

// ExampleSmooth relaxes the 1-edges of a unanimous chain so the graph
// becomes strongly connected — the Theorem 5.1 prerequisite for a full
// ranking to exist.
func ExampleSmooth() {
	g, err := graph.NewPreferenceGraph(3)
	if err != nil {
		log.Fatal(err)
	}
	// Unanimous chain 0 -> 1 -> 2: two 1-edges, no way back.
	if err := g.SetWeight(0, 1, 1); err != nil {
		log.Fatal(err)
	}
	if err := g.SetWeight(1, 2, 1); err != nil {
		log.Fatal(err)
	}
	// Two workers answered both pairs, unanimously.
	votes, err := truth.NewIndex(3, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := votes.Add([]crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true}, {Worker: 1, I: 0, J: 1, PrefersI: true},
		{Worker: 0, I: 1, J: 2, PrefersI: true}, {Worker: 1, I: 1, J: 2, PrefersI: true},
	}); err != nil {
		log.Fatal(err)
	}
	quality := []float64{0.98, 0.95}
	rng := rand.New(rand.NewPCG(1, 2))

	fmt.Println("before: strongly connected =", g.StronglyConnected())
	stats, err := smooth.Smooth(g, quality, votes, rng, smooth.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("1-edges smoothed:", stats.Smoothed)
	fmt.Println("after: strongly connected =", g.StronglyConnected())
	fmt.Println("majority direction kept:", g.Weight(0, 1) > 0.5)
	// Output:
	// before: strongly connected = false
	// 1-edges smoothed: 2
	// after: strongly connected = true
	// majority direction kept: true
}
