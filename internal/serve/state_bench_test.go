package serve

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/truth"
)

// voteHeapStream returns a crowd-marketplace stream over n objects and m
// workers: each pair is sampled with probability 0.1 and answered 5
// times, each time by a uniformly drawn worker who names the pair in a
// random order and prefers the lower-indexed object 80% of the time.
func voteHeapStream(n, m int) []crowd.Packed {
	rng := rand.New(rand.NewPCG(17, uint64(m)))
	var votes []crowd.Packed
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() >= 0.1 {
				continue
			}
			for range 5 {
				v := crowd.Vote{Worker: rng.IntN(m), I: i, J: j, PrefersI: rng.Float64() < 0.8}
				if rng.IntN(2) == 0 {
					v.I, v.J, v.PrefersI = v.J, v.I, !v.PrefersI
				}
				votes = append(votes, crowd.Pack(v))
			}
		}
	}
	return votes
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkVoteHeap measures the heap a daemon's vote store retains per
// kept vote at n=1000, for a few workers with many votes each and for a
// marketplace crowd of many workers with few. It applies the stream in
// keyed 1000-vote records through voteState.apply and reports
// state_B_per_vote (the votes, the dedup set and the ack window), then
// adds the kept packed votes to a cold truth.Index, as the daemon's first
// build does, and reports index_B_per_vote (the Steps 1-3 vote index a
// build keeps beside the state). Both are heap growth after a full GC,
// over the kept vote count. Last it builds the Steps 1-3 closure over the
// index and reports closure_B, the heap the daemon's one cached closure
// retains.
func BenchmarkVoteHeap(b *testing.B) {
	const n, recordVotes = 1000, 1000
	for _, m := range []int{30, 3000} {
		b.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(b *testing.B) {
			stream := voteHeapStream(n, m)
			window := DefaultConfig(n, m).IdempotencyWindow
			var stateB, indexB, closureB int64
			var kept int
			for i := 0; i < b.N; i++ {
				base := heapAfterGC()
				st := newVoteState(n, m, window)
				for k := 0; k < len(stream); k += recordVotes {
					st.apply(batchRecord{key: fmt.Sprintf("record-%d", k), votes: stream[k:min(k+recordVotes, len(stream))]})
				}
				withState := heapAfterGC()
				idx, err := truth.NewIndex(n, m)
				if err != nil {
					b.Fatal(err)
				}
				if err := idx.AddPacked(st.votes); err != nil {
					b.Fatal(err)
				}
				withIndex := heapAfterGC()
				cl, err := core.BuildClosureFrom(idx, nil, core.DefaultOptions(), core.NewPipelineRNG(1))
				if err != nil {
					b.Fatal(err)
				}
				closure := cl.Closure
				cl = nil
				stateB, indexB, closureB = withState-base, withIndex-withState, heapAfterGC()-withIndex
				kept = len(st.votes)
				runtime.KeepAlive(st)
				runtime.KeepAlive(idx)
				runtime.KeepAlive(closure)
			}
			b.ReportMetric(float64(kept), "votes")
			b.ReportMetric(float64(stateB)/float64(kept), "state_B_per_vote")
			b.ReportMetric(float64(indexB)/float64(kept), "index_B_per_vote")
			b.ReportMetric(float64(closureB), "closure_B")
		})
	}
}
