package serve_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"crowdrank"
	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/serve"
)

// Recover-shaped universe: a 100k-vote snapshot over n=200 objects and
// m=30 workers at selection ratio 0.3, plus a suffix of keyed 20-vote
// records, the shape of crowdload's recover workload.
const (
	recoverN, recoverM   = 200, 30
	recoverRatio         = 0.3
	recoverBatch         = 20
	recoverSnapshotVotes = 100_000
	recoverSuffixBatches = 500
)

// recoverVotes caches the generated stream: the benchmark function runs
// once per b.N probe, and simulating the rounds dominates its setup.
var recoverVotes struct {
	once  sync.Once
	votes []crowd.Vote
	err   error
}

// recoverStream returns simulated rounds concatenated until they cover the
// snapshot and the suffix. Later rounds repeat some earlier submissions,
// so the state dedups like a live collection does.
func recoverStream(b *testing.B) []crowd.Vote {
	b.Helper()
	rv := &recoverVotes
	rv.once.Do(func() {
		want := recoverSnapshotVotes + recoverSuffixBatches*recoverBatch
		for seed := uint64(1); len(rv.votes) < want; seed++ {
			plan, err := crowdrank.PlanTasksRatio(recoverN, recoverRatio, seed)
			if err != nil {
				rv.err = err
				return
			}
			round, err := crowdrank.SimulateVotes(plan, crowdrank.DefaultSimConfig(seed))
			if err != nil {
				rv.err = err
				return
			}
			for _, v := range round.Votes {
				rv.votes = append(rv.votes, crowd.Vote(v))
			}
		}
		rv.votes = rv.votes[:want]
	})
	if rv.err != nil {
		b.Fatal(rv.err)
	}
	return rv.votes
}

func recoverConfig(dir string) serve.Config {
	cfg := serve.DefaultConfig(recoverN, recoverM)
	cfg.Seed = 1
	cfg.JournalPath = dir
	cfg.JournalSync = journal.SyncOS
	cfg.SnapshotEveryBatches = -1
	cfg.SnapshotMaxJournalBytes = -1
	return cfg
}

// BenchmarkRecover times a daemon restart, New through Close, over a
// snapshot of 5k keyed 20-vote batches and a journal suffix of 500 more.
// It reports ms/op, the recovery phases (snapshot_ms, seed_ms and
// replay_ms, from Server.Recovered), allocations, and heap_MiB, the heap
// the open server retains.
func BenchmarkRecover(b *testing.B) {
	votes := recoverStream(b)
	cfg := recoverConfig(filepath.Join(b.TempDir(), "wal"))
	s, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	batches := len(votes) / recoverBatch
	for i := 0; i < batches; i++ {
		key := fmt.Sprintf("batch-%05d", i)
		if _, err := s.IngestKeyed(context.Background(), key, votes[i*recoverBatch:(i+1)*recoverBatch]); err != nil {
			b.Fatal(err)
		}
		if (i+1)*recoverBatch == recoverSnapshotVotes {
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var load, seed, replay time.Duration
	for i := 0; i < b.N; i++ {
		s, err := serve.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rec := s.Recovered()
		load, seed, replay = load+rec.SnapshotLoad, seed+rec.Seed, replay+rec.Replay
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(time.Since(start)), "ms/op")
	b.ReportMetric(perOp(load), "snapshot_ms")
	b.ReportMetric(perOp(seed), "seed_ms")
	b.ReportMetric(perOp(replay), "replay_ms")
	b.StopTimer()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err = serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "heap_MiB")
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
