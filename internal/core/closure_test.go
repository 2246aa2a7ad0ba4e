package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/simulate"
	"crowdrank/internal/truth"
)

// closureDigest hashes a Steps 1-3 result bit for bit: every closure
// weight's Float64bits in row-major order, every Out list in its stored
// order, and the worker qualities' bits.
func closureDigest(cl *ClosureResult) (closure, quality uint64) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	g := cl.Closure
	n := g.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			put(math.Float64bits(g.Weight(i, j)))
		}
	}
	for i := 0; i < n; i++ {
		put(uint64(len(g.Out(i))))
		for _, j := range g.Out(i) {
			put(uint64(j))
		}
	}
	closure = h.Sum64()
	h.Reset()
	for _, q := range cl.WorkerQuality {
		put(math.Float64bits(q))
	}
	return closure, h.Sum64()
}

// TestBuildClosureGolden pins Steps 1-3 bit for bit at paper scale (n=200,
// m=30, r=0.1, the crowdrankd benchmark's shape) at two vote prefixes. The
// digests were recorded on the map-based build the dense vote index
// replaced; any change to the accumulation order of Eq. 4/5, the G_P
// adjacency order, the smoothing draw order or the propagation walk shows
// up here.
func TestBuildClosureGolden(t *testing.T) {
	const n, m = 200, 30
	round, _ := simulateRound(t, n, m, 10, 0.1, simulate.Gaussian, simulate.MediumQuality, 1801)
	// The simulated round lists votes task by task; shuffling them
	// interleaves pairs and workers the way a live vote stream does, so
	// the per-pair and per-worker accumulation orders are both exercised.
	shuffled := slices.Clone(round)
	newRNG(1803).Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	tests := []struct {
		votes           []crowd.Vote
		prefix          int
		closure         uint64
		quality         uint64
		iterations      int
		converged       bool
		oneEdges        int
		uninformedPairs int
	}{
		{votes: round, prefix: 6000, closure: 0x8a6e009558f410d7, quality: 0x27120a548d8c6630,
			iterations: 16, converged: true, oneEdges: 342, uninformedPairs: 5684},
		{votes: round, prefix: len(round), closure: 0xb61984ce27da478, quality: 0xb2c9a72bf55402da,
			iterations: 16, converged: true, oneEdges: 1157, uninformedPairs: 0},
		{votes: shuffled, prefix: 12000, closure: 0xa9ab65161dbdcd1b, quality: 0x63d201c7ce8f3b86,
			iterations: 20, converged: false, oneEdges: 1426, uninformedPairs: 0},
	}
	for _, tc := range tests {
		for _, par := range []int{0, 3} {
			opts := DefaultOptions()
			opts.Propagate.Parallelism = par
			cl, err := BuildClosure(n, m, tc.votes[:tc.prefix], opts, NewPipelineRNG(1802))
			if err != nil {
				t.Fatal(err)
			}
			closure, quality := closureDigest(cl)
			if closure != tc.closure || quality != tc.quality {
				t.Errorf("prefix %d parallelism %d: digests closure %#x quality %#x, want %#x %#x",
					tc.prefix, par, closure, quality, tc.closure, tc.quality)
			}
			if cl.TruthIterations != tc.iterations || cl.TruthConverged != tc.converged ||
				cl.OneEdges != tc.oneEdges || cl.UninformedPairs != tc.uninformedPairs {
				t.Errorf("prefix %d: iterations %d converged %v oneEdges %d uninformed %d, want %d %v %d %d",
					tc.prefix, cl.TruthIterations, cl.TruthConverged, cl.OneEdges, cl.UninformedPairs,
					tc.iterations, tc.converged, tc.oneEdges, tc.uninformedPairs)
			}
		}
	}
}

// sameClosure reports the first difference between two Steps 1-3 results,
// comparing every float bit for bit and every adjacency list in order.
func sameClosure(got, want *ClosureResult) error {
	if got.TruthIterations != want.TruthIterations || got.TruthConverged != want.TruthConverged ||
		got.OneEdges != want.OneEdges || got.UninformedPairs != want.UninformedPairs {
		return fmt.Errorf("diagnostics (%d %v %d %d), want (%d %v %d %d)",
			got.TruthIterations, got.TruthConverged, got.OneEdges, got.UninformedPairs,
			want.TruthIterations, want.TruthConverged, want.OneEdges, want.UninformedPairs)
	}
	if len(got.WorkerQuality) != len(want.WorkerQuality) {
		return fmt.Errorf("%d worker qualities, want %d", len(got.WorkerQuality), len(want.WorkerQuality))
	}
	for w, q := range got.WorkerQuality {
		if math.Float64bits(q) != math.Float64bits(want.WorkerQuality[w]) {
			return fmt.Errorf("worker %d quality %v, want %v", w, q, want.WorkerQuality[w])
		}
	}
	g, h := got.Closure, want.Closure
	if g.N() != h.N() {
		return fmt.Errorf("closure over %d objects, want %d", g.N(), h.N())
	}
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if math.Float64bits(g.Weight(i, j)) != math.Float64bits(h.Weight(i, j)) {
				return fmt.Errorf("w(%d,%d) = %v, want %v", i, j, g.Weight(i, j), h.Weight(i, j))
			}
		}
		if !slices.Equal(g.Out(i), h.Out(i)) || !slices.Equal(g.In(i), h.In(i)) {
			return fmt.Errorf("adjacency of %d differs", i)
		}
	}
	return nil
}

// TestBuildClosureFromFoldsLikeCold feeds one index a live-like vote stream
// in uneven chunks, building after each, and checks every build against a
// cold BuildClosure over the same prefix.
func TestBuildClosureFromFoldsLikeCold(t *testing.T) {
	const n, m = 200, 30
	votes, _ := simulateRound(t, n, m, 10, 0.1, simulate.Gaussian, simulate.MediumQuality, 1804)
	newRNG(1805).Shuffle(len(votes), func(a, b int) { votes[a], votes[b] = votes[b], votes[a] })
	idx, err := truth.NewIndex(n, m)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	for end, step := 0, 1; end < len(votes); step *= 3 {
		next := min(end+step, len(votes))
		got, err := BuildClosureFrom(idx, votes[end:next], opts, NewPipelineRNG(1806))
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildClosure(n, m, votes[:next], opts, NewPipelineRNG(1806))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameClosure(got, want); err != nil {
			t.Fatalf("after %d votes: %v", next, err)
		}
		if idx.Len() != next {
			t.Fatalf("index holds %d votes, want %d", idx.Len(), next)
		}
		end = next
	}
}

// FuzzIndexFold cuts an arbitrary valid vote stream into arbitrary chunks
// and adds them to one index, building after each chunk. Every build must
// equal, bit for bit, a cold build over the same prefix; a pair id or a
// scratch buffer leaking from one build into the next shows up here.
func FuzzIndexFold(f *testing.F) {
	f.Add([]byte{5, 3, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0x80, 0, 2}, []byte{1, 2, 3})
	f.Add([]byte{9, 4, 3, 7, 1, 0x81, 2, 5, 2, 4, 8, 0x83, 3, 1, 1, 2, 0, 6}, []byte{0, 5, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 0x80, 1, 0, 0, 1, 0}, []byte{2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(data) < 2 {
			return
		}
		n, m := 2+int(data[0])%10, 1+int(data[1])%5
		// Builds run once per chunk over the whole prefix, so the cost
		// grows with the square of the stream: cap it at 256 votes.
		var votes []crowd.Vote
		for b := data[2:]; len(b) >= 3 && len(votes) < 256; b = b[3:] {
			i, j := int(b[1])%n, int(b[2])%n
			if i == j {
				j = (i + 1) % n
			}
			votes = append(votes, crowd.Vote{Worker: int(b[0]&0x7f) % m, I: i, J: j, PrefersI: b[0]&0x80 != 0})
		}
		idx, err := truth.NewIndex(n, m)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		end, empty := 0, false
		for c := 0; end < len(votes); c++ {
			step := 1
			if len(cuts) > 0 && !empty {
				step = int(cuts[c%len(cuts)]) % 7 // an empty chunk now and then
			}
			empty = step == 0
			next := min(end+step, len(votes))
			got, gotErr := BuildClosureFrom(idx, votes[end:next], opts, NewPipelineRNG(3))
			want, wantErr := BuildClosure(n, m, votes[:next], opts, NewPipelineRNG(3))
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("after %d votes: fold error %v, cold error %v", next, gotErr, wantErr)
			}
			if gotErr == nil {
				if err := sameClosure(got, want); err != nil {
					t.Fatalf("after %d votes: %v", next, err)
				}
			}
			end = next
		}
	})
}
