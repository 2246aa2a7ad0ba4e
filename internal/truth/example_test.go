package truth_test

import (
	"fmt"
	"log"

	"crowdrank/internal/crowd"
	"crowdrank/internal/truth"
)

// ExampleDiscover runs truth discovery on a tiny conflicting vote set:
// three workers agree, one dissents, and the dissenter's quality drops
// while the majority's preference becomes the truth.
func ExampleDiscover() {
	votes := []crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 1, I: 0, J: 1, PrefersI: true},
		{Worker: 2, I: 0, J: 1, PrefersI: true},
		{Worker: 3, I: 0, J: 1, PrefersI: false}, // dissenter
		{Worker: 0, I: 1, J: 2, PrefersI: true},
		{Worker: 1, I: 1, J: 2, PrefersI: true},
		{Worker: 2, I: 1, J: 2, PrefersI: true},
		{Worker: 3, I: 1, J: 2, PrefersI: false}, // dissenter again
	}
	idx, err := truth.NewIndex(3, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Add(votes); err != nil {
		log.Fatal(err)
	}
	res, err := truth.Discover(idx, truth.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	id, _ := idx.PairID(0, 1)
	x01 := res.Preference[id]
	fmt.Printf("preference 0<1 decisively above 1/2: %v\n", x01 > 0.9)
	fmt.Printf("dissenter quality below the majority's: %v\n",
		res.Quality[3] < res.Quality[0])
	fmt.Printf("dissenter flagged at threshold 0.75: %v\n",
		len(res.SuspectWorkers(0.75)) == 1 && res.SuspectWorkers(0.75)[0] == 3)
	// Output:
	// preference 0<1 decisively above 1/2: true
	// dissenter quality below the majority's: true
	// dissenter flagged at threshold 0.75: true
}
