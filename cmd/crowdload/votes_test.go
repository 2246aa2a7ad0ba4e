package main

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"crowdrank/internal/client"
	"crowdrank/internal/crowd"
	"crowdrank/internal/serve"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	a, err := newStream(40, 10, 7, 0.3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newStream(40, 10, 7, 0.3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.votes, b.votes) || !slices.Equal(a.truth, b.truth) || !slices.Equal(a.rounds, b.rounds) {
		t.Fatal("the same seed drew different votes")
	}
	c, err := newStream(40, 10, 8, 0.3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.votes, c.votes) {
		t.Fatal("different seeds drew the same votes")
	}
}

// TestStreamOneHiddenTruth: many rounds, one truth, fresh task plans.
func TestStreamOneHiddenTruth(t *testing.T) {
	s, err := newStream(40, 10, 3, 0.3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.rounds) < 3 || len(s.votes) < 5000 {
		t.Fatalf("want several rounds and >= 5000 votes, got %d rounds, %d votes", len(s.rounds), len(s.votes))
	}
	first, second := s.votes[:s.rounds[0]], s.votes[s.rounds[0]:s.rounds[1]]
	if slices.Equal(first, second) {
		t.Fatal("successive rounds repeated the same plan")
	}
	if len(s.truth) != 40 {
		t.Fatalf("truth ranks %d objects, want 40", len(s.truth))
	}
}

// TestReconstructAgainstDaemon feeds batches with duplicates (including
// object-order swaps) through the daemon engine and checks that the
// harness rebuilds its vote list from the acks alone, in any ack order.
func TestReconstructAgainstDaemon(t *testing.T) {
	const n, m = 12, 4
	srv, err := serve.New(serve.Config{N: n, M: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewPCG(5, 6))
	var acked []ackedBatch
	for b := range 40 {
		batch := make([]crowd.Vote, 8)
		for i := range batch {
			x, y := rng.IntN(n), rng.IntN(n-1)
			if y >= x {
				y++
			}
			batch[i] = crowd.Vote{Worker: rng.IntN(m), I: x, J: y, PrefersI: rng.IntN(2) == 0}
		}
		res, err := srv.IngestKeyed(context.Background(), "", batch)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ackedBatch{Req: b, Votes: batch, Ack: client.Ack{
			Accepted: res.Accepted, Duplicates: res.Duplicates, Seq: res.Seq, TotalVotes: res.TotalVotes,
		}})
	}
	rng.Shuffle(len(acked), func(i, j int) { acked[i], acked[j] = acked[j], acked[i] })
	votes, err := reconstruct(acked)
	if err != nil {
		t.Fatal(err)
	}
	if len(votes) != srv.VoteCount() {
		t.Fatalf("rebuilt %d votes, daemon holds %d", len(votes), srv.VoteCount())
	}
	dups := 0
	for _, a := range acked {
		dups += a.Ack.Duplicates
	}
	if dups == 0 {
		t.Fatal("the batches should have produced duplicates to exercise the dedup rule")
	}

	tampered := slices.Clone(acked)
	tampered[3].Ack.TotalVotes++
	if _, err := reconstruct(tampered); err == nil {
		t.Error("an ack whose total disagrees with the rebuild must be refused")
	}
	missing := slices.DeleteFunc(slices.Clone(acked), func(a ackedBatch) bool { return a.Ack.Seq == 20 })
	if _, err := reconstruct(missing); err == nil {
		t.Error("a missing acknowledged batch must be detected")
	}
}
