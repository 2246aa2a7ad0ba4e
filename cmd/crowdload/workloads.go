package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"crowdrank/internal/client"
)

// workload is one named traffic mix against crowdrankd.
type workload struct {
	name string
	why  string
	// primary is the request class the latency metrics describe.
	primary string
	votes   func(seed uint64, seconds int) (*stream, error)
	setup   func(ctx context.Context, r *runner, dir string) error
	measure func(ctx context.Context, r *runner) error
}

// Load shapes. Rates are per second; batch sizes in votes.
const (
	ingestPreload = 100_000
	ingestRate    = 300
	ingestBatch   = 20

	rankRate = 40

	mixedRound      = 19_900 // one r=0.1 round at n=200: 1,990 pairs, 10 workers each
	mixedIngestRate = 10
	mixedBatch      = 20
	mixedRankRate   = 10

	recoverPreload = 100_000
	recoverSuffix  = 500
	recoverBacklog = 500
	recoverBatch   = 20
)

// conns is the generator's connection budget: one per CPU.
func conns() int { return runtime.NumCPU() }

var workloads = []*workload{
	{
		name:    "ingest",
		why:     "keyed 20-vote POST /votes at a fixed rate onto 100k votes: HTTP decode, dedup, journal append and snapshot policy; no inference",
		primary: "votes",
		votes: func(seed uint64, seconds int) (*stream, error) {
			return newStream(objects, workers, seed, 0.3, ingestPreload+ingestRate*seconds*ingestBatch)
		},
		setup: func(ctx context.Context, r *runner, dir string) error {
			c, err := r.startLeader(ctx, dir, conns())
			if err != nil {
				return err
			}
			if err := r.preload(ctx, c, r.st.votes[:ingestPreload]); err != nil {
				return err
			}
			return r.prepareBatches(c, ingestPreload, ingestBatch, ingestRate*r.cfg.seconds)
		},
		measure: func(ctx context.Context, r *runner) error {
			c := r.clients[0]
			err := r.measureLeader(ctx, func() error {
				samples, acks := ingestLoop(ctx, c, r.phase, ingestRate, r.batches, r.keys, r.reserveIDs(len(r.batches)))
				r.record(samples, r.batches, acks, nil)
				return nil
			})
			if err != nil {
				return err
			}
			r.ops = len(r.batches)
			return r.finalRank(ctx)
		},
	},
	{
		name:    "rank-steady",
		why:     "GET /rank at a fixed rate on one unchanging 60k-vote state: the cached closure leaves Step 4 search and HTTP; no journal or Steps 1-3",
		primary: "rank",
		votes: func(seed uint64, _ int) (*stream, error) {
			return newStream(objects, workers, seed, 0.3, 1)
		},
		setup: func(ctx context.Context, r *runner, dir string) error {
			c, err := r.startLeader(ctx, dir, conns())
			if err != nil {
				return err
			}
			if err := r.preload(ctx, c, r.st.votes); err != nil {
				return err
			}
			return r.warmUp(ctx, c)
		},
		measure: func(ctx context.Context, r *runner) error {
			c := r.clients[0]
			count := rankRate * r.cfg.seconds
			err := r.measureLeader(ctx, func() error {
				samples, ranks := rankLoop(ctx, c, r.phase, rankRate, count, r.reserveIDs(count))
				r.record(samples, nil, nil, ranks)
				return nil
			})
			r.ops = count
			return err
		},
	},
	{
		name:    "mixed",
		why:     "concurrent 20-vote ingest and GET /rank on a 20k-vote state: every rank sees a new generation and rebuilds Steps 1-3, and both classes share two cores",
		primary: "rank",
		votes: func(seed uint64, seconds int) (*stream, error) {
			return newStream(objects, workers, seed, 0.1, mixedRound+mixedIngestRate*seconds*mixedBatch)
		},
		setup: func(ctx context.Context, r *runner, dir string) error {
			ing, err := r.startLeader(ctx, dir, 1)
			if err != nil {
				return err
			}
			rk, err := r.newClient(r.leader.url, 1)
			if err != nil {
				return err
			}
			if err := r.preload(ctx, ing, r.st.votes[:r.st.rounds[0]]); err != nil {
				return err
			}
			if err := r.warmUp(ctx, rk); err != nil {
				return err
			}
			return r.prepareBatches(ing, r.st.rounds[0], mixedBatch, mixedIngestRate*r.cfg.seconds)
		},
		measure: func(ctx context.Context, r *runner) error {
			ing, rk := r.clients[0], r.clients[1]
			rankCount := mixedRankRate * r.cfg.seconds
			err := r.measureLeader(ctx, func() error {
				ingestIDs, rankIDs := r.reserveIDs(len(r.batches)), r.reserveIDs(rankCount)
				var wg sync.WaitGroup
				var is, rs []sample
				var acks []client.Ack
				var ranks []client.Ranking
				wg.Add(2)
				go func() {
					defer wg.Done()
					is, acks = ingestLoop(ctx, ing, r.phase, mixedIngestRate, r.batches, r.keys, ingestIDs)
				}()
				// Ranks fall halfway between two ingests, so each one sees
				// the generation the previous ingest created: every rank
				// rebuilds Steps 1-3 instead of racing an ingest due at
				// the same instant.
				rankStart := r.phase.Add(time.Second / mixedIngestRate / 2)
				go func() {
					defer wg.Done()
					rs, ranks = rankLoop(ctx, rk, rankStart, mixedRankRate, rankCount, rankIDs)
				}()
				wg.Wait()
				r.record(is, r.batches, acks, nil)
				r.record(rs, nil, nil, ranks)
				return nil
			})
			r.ops = len(r.batches) + rankCount
			return err
		},
	},
	{
		name:    "recover",
		why:     "repeated SIGKILL and restart over a 100k-vote snapshot plus journal suffix, then follower bootstrap and catch-up: recovery and replication; no HTTP hot path",
		primary: "restart",
		votes: func(seed uint64, _ int) (*stream, error) {
			return newStream(objects, workers, seed, 0.3, recoverPreload+(recoverSuffix+recoverBacklog)*recoverBatch)
		},
		setup: func(ctx context.Context, r *runner, dir string) error {
			c, err := r.startLeader(ctx, dir, conns())
			if err != nil {
				return err
			}
			if err := r.preload(ctx, c, r.st.votes[:recoverPreload]); err != nil {
				return err
			}
			if err := r.leader.post(ctx, "/snapshot"); err != nil {
				return err
			}
			suffix, err := r.st.batches(recoverPreload, recoverBatch, recoverSuffix)
			if err != nil {
				return err
			}
			for _, b := range suffix {
				if err := r.submit(ctx, c, b); err != nil {
					return err
				}
			}
			return nil
		},
		measure: func(ctx context.Context, r *runner) error {
			if err := r.restarts(ctx); err != nil {
				return err
			}
			if err := r.replicate(ctx); err != nil {
				return err
			}
			return r.finalRank(ctx)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// startLeader launches the leader over dir and returns a client with the
// given connection budget.
func (r *runner) startLeader(ctx context.Context, dir string, conns int) (*client.Client, error) {
	d, err := startDaemon(ctx, r.cfg.bin, dir)
	if err != nil {
		return nil, err
	}
	r.leader = d
	return r.newClient(d.url, conns)
}

// prepareBatches cuts the measured phase's batches and draws one
// idempotency key for each, so the phase itself only sends.
func (r *runner) prepareBatches(c *client.Client, from, size, count int) error {
	b, err := r.st.batches(from, size, count)
	if err != nil {
		return err
	}
	r.batches, r.keys = b, make([]string, count)
	for i := range r.keys {
		r.keys[i] = c.NewKey()
	}
	return nil
}

// restarts SIGKILLs and relaunches the leader back to back for the
// measured phase. Each restart is timed from the kill to /readyz 200 and
// must come back with every acknowledged vote.
func (r *runner) restarts(ctx context.Context) error {
	want := r.acked[len(r.acked)-1].Ack.TotalVotes
	var cpu, rss, recovery []float64
	r.phase = time.Now()
	phase := time.Duration(r.cfg.seconds) * time.Second
	for i := 0; time.Since(r.phase) < phase; i++ {
		if i > 0 {
			ms, err := r.leader.cpuMillis()
			if err != nil {
				return err
			}
			cpu = append(cpu, ms)
		}
		id := r.id()
		due := time.Now()
		err := r.leader.restart(ctx)
		r.samples = append(r.samples, sample{ID: id, Class: "restart", Due: due, Sent: due, End: time.Now(), Err: err})
		if err != nil {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		mb, err := r.leader.rssMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
		h, err := r.leader.health(ctx)
		if err != nil {
			return err
		}
		if h.Votes != want {
			r.fail("restart %d recovered %d votes, %d were acknowledged", i+1, h.Votes, want)
		}
		recovery = append(recovery, h.RecoverySeconds*1000)
	}
	ms, err := r.leader.cpuMillis()
	if err != nil {
		return err
	}
	cpu = append(cpu, ms)
	r.ops = len(r.samples)
	for _, c := range cpu {
		r.cpuMillis += c
	}
	r.rssMB = median(rss)
	r.setExtra("recovery.daemon_ms", median(recovery))
	// Restarts moved the leader to a new port.
	c, err := r.newClient(r.leader.url, conns())
	if err != nil {
		return err
	}
	r.clients[0] = c
	return nil
}

// replicate bootstraps an empty follower from the leader, stops it,
// grows the leader by recoverBacklog batches and restarts the follower,
// timing each until the follower holds every acknowledged batch.
func (r *runner) replicate(ctx context.Context) error {
	leaderBefore, err := r.leader.scrape(ctx)
	if err != nil {
		return err
	}
	start := time.Now()
	f, err := startDaemon(ctx, r.cfg.bin, filepath.Join(r.dir, "follower"), "-replicate-from", r.leader.url)
	if err != nil {
		return fmt.Errorf("follower bootstrap: %w", err)
	}
	defer f.kill()
	if err := r.caughtUp(ctx, f); err != nil {
		return err
	}
	bootstrap := time.Since(start)
	fm, err := f.scrape(ctx)
	if err != nil {
		return err
	}
	f.stop()
	backlog, err := r.st.batches(recoverPreload+recoverSuffix*recoverBatch, recoverBatch, recoverBacklog)
	if err != nil {
		return err
	}
	for _, b := range backlog {
		if err := r.submit(ctx, r.clients[0], b); err != nil {
			return err
		}
	}
	start = time.Now()
	if err := f.start(ctx); err != nil {
		return fmt.Errorf("follower restart: %w", err)
	}
	if err := r.caughtUp(ctx, f); err != nil {
		return err
	}
	catchup := time.Since(start)
	h, err := f.health(ctx)
	if err != nil {
		return err
	}
	leaderAfter, err := r.leader.scrape(ctx)
	if err != nil {
		return err
	}
	r.setExtra("replica.bootstrap_ms", bootstrap.Seconds()*1000)
	r.setExtra("replica.catchup_ms", catchup.Seconds()*1000)
	if replay := catchup.Seconds() - h.RecoverySeconds; replay > 0 {
		r.setExtra("replica.catchup_records_per_s", recoverBacklog/replay)
	}
	r.setExtra("replica.snapshot_bootstraps", fm.sum("crowdrankd_replica_snapshot_bootstraps_total"))
	r.setExtra("replica.records_streamed", delta(leaderBefore, leaderAfter).sum("crowdrankd_replica_records_streamed_total"))
	return nil
}

// caughtUp waits until the follower has applied every batch the leader
// acknowledged and holds the acknowledged vote count.
func (r *runner) caughtUp(ctx context.Context, f *daemon) error {
	want := r.acked[len(r.acked)-1].Ack
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	var h health
	for {
		var err error
		if h, err = f.health(ctx); err == nil && h.Replica.LocalNextSeq >= uint64(want.Seq) && h.Votes == want.TotalVotes {
			return nil
		}
		select {
		case <-ctx.Done():
			r.fail("follower at seq %d holds %d votes; leader acknowledged %d batches, %d votes",
				h.Replica.LocalNextSeq, h.Votes, want.Seq, want.TotalVotes)
			return fmt.Errorf("follower not caught up: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (r *runner) setExtra(name string, v float64) {
	if r.extra == nil {
		r.extra = make(map[string]float64)
	}
	r.extra[name] = v
}
