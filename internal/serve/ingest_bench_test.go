package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkIngestHTTP posts one vote body per op to POST /votes through
// Handler(), in process and without a journal: the bulk 5000-vote body a
// requester delivers a round in, and the 20-vote body of a steady
// stream. The bodies are the same every op, so after the first op every
// vote is a duplicate and state does not grow: the op is the HTTP layer,
// the body decode, the per-vote check and dedup. It reports ns/vote
// beside B/op and allocs/op per request.
func BenchmarkIngestHTTP(b *testing.B) {
	const n, m = 200, 50
	for _, size := range []int{5000, 20} {
		b.Run(fmt.Sprintf("votes=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, uint64(size)))
			req := ingestRequest{Votes: make([]voteJSON, size)}
			for k := range req.Votes {
				i, j := rng.IntN(n), rng.IntN(n-1)
				if j >= i {
					j++
				}
				req.Votes[k] = voteJSON{Worker: rng.IntN(m), I: i, J: j, PrefersI: rng.IntN(2) == 0}
			}
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(n, m)
			cfg.Seed = 1
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			h := s.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r := httptest.NewRequest(http.MethodPost, "/votes", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/vote")
		})
	}
}
