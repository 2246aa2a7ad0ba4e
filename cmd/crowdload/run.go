package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdrank"
	"crowdrank/internal/client"
	"crowdrank/internal/crowd"
	"crowdrank/internal/feq"
	"crowdrank/internal/invariant"
	"crowdrank/internal/obs"
)

// Fixed load-shape settings shared by every workload.
const (
	// setupReps is how often each run sets up from scratch; setup_s is the
	// median, and the last set-up is the one measured.
	setupReps = 5
	// preloadBatch is the batch size of set-up ingest.
	preloadBatch = 5000
	// rankDeadline is the deadline_ms every rank request carries.
	rankDeadline = 250 * time.Millisecond
	// lateGate bounds the generator's median lateness; beyond it most
	// requests left behind schedule, so the generator, not the daemon,
	// shaped the run and it is invalid. The tail is not gated: latency
	// runs from the due time, so a late wake-up is charged to its request
	// either way, and on a shared host the tail follows the host's other
	// load (one busy neighbour put p98 at 11 ms on two vCPUs).
	lateGate = 10 * time.Millisecond
	// certifySamples bounds how many served generations are certified
	// in an untraced run (a traced run replays more).
	certifySamples = 3
)

// config is one invocation's settings.
type config struct {
	bin      string // crowdrankd binary
	workdir  string // scratch space for daemon data and traces
	seed     uint64
	seconds  int
	trace    bool
	traceOut string // span file of a traced run
}

// servedRank is one 200 answer to GET /rank.
type servedRank struct {
	Req int
	client.Ranking
}

// runner is one run of one workload: its inputs, the daemons it started,
// and everything it measured.
type runner struct {
	cfg config
	wl  *workload
	dir string
	t0  time.Time

	st      *stream
	leader  *daemon
	clients []*client.Client
	regs    []*obs.Registry
	calls   int // client calls issued; more attempts than calls are retries

	// batches and keys are the measured phase's ingest traffic, cut and
	// keyed during set-up.
	batches [][]crowd.Vote
	keys    []string

	acked   []ackedBatch
	ranks   []servedRank
	samples []sample // measured-phase requests
	phase   time.Time
	nextID  int

	setups    []float64 // seconds
	cpuMillis float64   // leader CPU during the measured phase
	ops       int       // requests (or restarts) in the measured phase
	rssMB     float64   // leader resident memory, median over the phase
	accuracy  []float64 // Kendall accuracy of each served ranking
	before    series    // leader /metrics at measured-phase start
	after     series    // ... and end
	extra     map[string]float64

	spans    []span
	failures []string
}

// fail records a failed output check; the run is then invalid.
func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *runner) id() int {
	r.nextID++
	return r.nextID
}

// newClient builds an internal/client Client for url with at most conns
// keep-alive connections and no retries, so every failure is counted.
func (r *runner) newClient(url string, conns int) (*client.Client, error) {
	reg := obs.NewRegistry()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	c, err := client.New(client.Config{
		BaseURL:     url,
		Seed:        r.cfg.seed ^ uint64(len(r.clients)+1),
		MaxAttempts: 1,
		HTTPClient:  &http.Client{Transport: tr},
		Metrics:     reg,
	})
	if err != nil {
		return nil, err
	}
	r.clients = append(r.clients, c)
	r.regs = append(r.regs, reg)
	return c, nil
}

// teardown kills the current leader, deletes its data and forgets its
// traffic, ready for another set-up from scratch.
func (r *runner) teardown() error {
	if r.leader != nil {
		r.leader.kill()
		if err := os.RemoveAll(r.leader.dir); err != nil {
			return err
		}
		r.leader = nil
	}
	r.clients, r.regs, r.calls = nil, nil, 0
	r.acked, r.ranks = nil, nil
	return nil
}

// submit sends one set-up batch and records its ack.
func (r *runner) submit(ctx context.Context, c *client.Client, votes []crowd.Vote) error {
	r.calls++
	ack, err := c.SubmitVotes(ctx, votes)
	if err != nil {
		return fmt.Errorf("set-up ingest: %w", err)
	}
	r.acked = append(r.acked, ackedBatch{Req: -1, Votes: votes, Ack: ack})
	return nil
}

// preload ingests votes in preloadBatch-sized batches.
func (r *runner) preload(ctx context.Context, c *client.Client, votes []crowd.Vote) error {
	for len(votes) > 0 {
		k := min(preloadBatch, len(votes))
		if err := r.submit(ctx, c, votes[:k]); err != nil {
			return err
		}
		votes = votes[k:]
	}
	return nil
}

// warmUp ranks until the exact rung's circuit breaker has opened, as it
// does within seconds of production traffic on an instance too large
// for exact search, so the measured phase sees the steady-state ladder.
func (r *runner) warmUp(ctx context.Context, c *client.Client) error {
	for range 10 {
		r.calls++
		rk, err := c.Rank(ctx, rankDeadline)
		if err != nil {
			return fmt.Errorf("warm-up rank: %w", err)
		}
		r.ranks = append(r.ranks, servedRank{Req: -1, Ranking: rk})
		h, err := r.leader.health(ctx)
		if err != nil {
			return err
		}
		if h.Breaker == "open" {
			return nil
		}
	}
	return fmt.Errorf("exact-rung breaker still closed after 10 warm-up ranks")
}

// measureLeader brackets the measured phase: /metrics and CPU of the
// leader before and after fn, and its resident memory sampled every
// 100 ms during fn. The median sample is reported: the peak depends on
// where garbage collections happen to fall and does not repeat.
func (r *runner) measureLeader(ctx context.Context, fn func() error) error {
	var err error
	if r.before, err = r.leader.scrape(ctx); err != nil {
		return err
	}
	cpu0, err := r.leader.cpuMillis()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rss []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if mb, err := r.leader.rssMB(); err == nil {
					rss = append(rss, mb)
				}
			}
		}
	}()
	r.phase = time.Now()
	err = fn()
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	r.rssMB = median(rss)
	cpu1, err := r.leader.cpuMillis()
	if err != nil {
		return err
	}
	r.cpuMillis = cpu1 - cpu0
	r.after, err = r.leader.scrape(ctx)
	return err
}

// record keeps the measured phase's samples and the acks and rankings
// they produced.
func (r *runner) record(samples []sample, batches [][]crowd.Vote, acks []client.Ack, ranks []client.Ranking) {
	r.samples = append(r.samples, samples...)
	r.calls += len(samples)
	for i, s := range samples {
		if s.Err != nil {
			continue
		}
		if batches != nil {
			r.acked = append(r.acked, ackedBatch{Req: s.ID, Votes: batches[i], Ack: acks[i]})
		}
		if ranks != nil {
			r.ranks = append(r.ranks, servedRank{Req: s.ID, Ranking: ranks[i]})
		}
	}
}

// ingestLoop drives keyed POST /votes of batches at rate.
func ingestLoop(ctx context.Context, c *client.Client, start time.Time, rate float64, batches [][]crowd.Vote, keys []string, firstID int) ([]sample, []client.Ack) {
	acks := make([]client.Ack, len(batches))
	samples := openLoop(ctx, start, "votes", rate, len(batches), firstID, func(ctx context.Context, i int) error {
		ack, err := c.SubmitVotesKeyed(ctx, keys[i], batches[i])
		acks[i] = ack
		return err
	})
	return samples, acks
}

// rankLoop drives GET /rank?deadline_ms=250 at rate.
func rankLoop(ctx context.Context, c *client.Client, start time.Time, rate float64, count, firstID int) ([]sample, []client.Ranking) {
	ranks := make([]client.Ranking, count)
	samples := openLoop(ctx, start, "rank", rate, count, firstID, func(ctx context.Context, i int) error {
		rk, err := c.Rank(ctx, rankDeadline)
		ranks[i] = rk
		return err
	})
	return samples, ranks
}

// reserveIDs hands out n consecutive request ids.
func (r *runner) reserveIDs(n int) int {
	first := r.nextID + 1
	r.nextID += n
	return first
}

// check runs the output checks every run makes: served rankings are
// permutations and certify against the votes they were served from, the
// acks rebuild into the daemon's vote state, the client never retried,
// and the generator kept to its schedule. It returns the rebuilt votes.
func (r *runner) check(ctx context.Context) []crowd.Vote {
	votes, err := reconstruct(r.acked)
	if err != nil {
		r.fail("vote reconstruction: %v", err)
	}
	if h, err := r.leader.health(ctx); err != nil {
		r.fail("final /healthz: %v", err)
	} else if h.Votes != len(votes) {
		r.fail("final /healthz reports %d votes, acks rebuild %d", h.Votes, len(votes))
	}
	for _, rk := range r.ranks {
		if err := invariant.VerifyRanking(objects, rk.Ranking.Ranking); err != nil {
			r.fail("request %d: %v", rk.Req, err)
		}
		if rk.Seed != daemonSeed {
			r.fail("request %d: served seed %d, daemon runs with %d", rk.Req, rk.Seed, daemonSeed)
		}
		if rk.Req < 0 {
			continue // set-up traffic: checked, but not part of the measurement
		}
		if acc, err := crowdrank.Accuracy(rk.Ranking.Ranking, r.st.truth); err == nil {
			r.accuracy = append(r.accuracy, acc)
		}
	}
	if len(r.ranks) == 0 {
		r.fail("no ranking was served")
	}
	limit := certifySamples
	if r.cfg.trace {
		limit = replaySamples
	}
	for _, rk := range sampleGenerations(r.ranks, limit) {
		if err := certify(votes, rk); err != nil {
			r.fail("request %d: %v", rk.Req, err)
		}
	}
	if n := r.retries(); n != 0 {
		r.fail("client retried %d times; every attempt must count", n)
	}
	if late := r.lateness(50); late > lateGate {
		r.fail("generator median lateness %v exceeds %v: the load generator, not the daemon, shaped this run", late, lateGate)
	}
	return votes
}

// certify checks that rk certifies against the closure rebuilt from the
// first rk.Votes acknowledged votes under the served seed, and that the
// certificate's score is the served log-probability.
func certify(votes []crowd.Vote, rk servedRank) error {
	if rk.Votes > len(votes) {
		return fmt.Errorf("ranking served from %d votes, only %d acknowledged", rk.Votes, len(votes))
	}
	pub := make([]crowdrank.Vote, rk.Votes)
	for i, v := range votes[:rk.Votes] {
		pub[i] = crowdrank.Vote{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}
	}
	cert, err := crowdrank.CertifyRanking(objects, workers, pub, rk.Ranking.Ranking, crowdrank.WithSeed(rk.Seed))
	if err != nil {
		return fmt.Errorf("certifying ranking over %d votes: %w", rk.Votes, err)
	}
	tol := 1e-6 * max(1, -rk.LogProb, rk.LogProb)
	if !feq.Close(cert.Score, rk.LogProb, tol) {
		return fmt.Errorf("ranking over %d votes served log_prob %v, certificate scores it %v", rk.Votes, rk.LogProb, cert.Score)
	}
	if cert.Gap < -tol {
		return fmt.Errorf("ranking over %d votes: negative certificate gap %v", rk.Votes, cert.Gap)
	}
	return nil
}

// sampleGenerations picks, deterministically, up to limit vote counts
// spread evenly over those served after set-up, and returns the last
// ranking served at each.
func sampleGenerations(ranks []servedRank, limit int) []servedRank {
	last := make(map[int]servedRank)
	for _, rk := range ranks {
		if rk.Req < 0 {
			continue
		}
		if prev, ok := last[rk.Votes]; !ok || rk.Req >= prev.Req {
			last[rk.Votes] = rk
		}
	}
	counts := make([]int, 0, len(last))
	for c := range last {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	if len(counts) > limit {
		picked := make([]int, limit)
		for i := range picked {
			picked[i] = counts[i*(len(counts)-1)/max(limit-1, 1)]
		}
		counts = slices.Compact(picked)
	}
	out := make([]servedRank, len(counts))
	for i, c := range counts {
		out[i] = last[c]
	}
	return out
}

// retries is attempts beyond one per call, over every client.
func (r *runner) retries() int {
	attempts := 0.0
	for _, reg := range r.regs {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			return -1
		}
		s, err := parseSeries(b.String())
		if err != nil {
			return -1
		}
		attempts += s.sum("crowdrank_client_attempts_total")
	}
	return int(attempts) - r.calls
}

// lateness is the generator's p-th percentile lateness over the measured
// phase.
func (r *runner) lateness(p float64) time.Duration {
	late := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		late[i] = s.Late()
	}
	return time.Duration(newDist(late).Percentile(p) * float64(time.Millisecond))
}

// latencies returns the measured-phase latency distribution of one
// request class, successes only; failures are counted separately.
func (r *runner) latencies(class string) dist {
	var ds []time.Duration
	for _, s := range r.samples {
		if s.Class == class && s.Err == nil {
			ds = append(ds, s.Latency())
		}
	}
	return newDist(ds)
}

// finalRank fetches one ranking after the measured phase, for workloads
// whose traffic serves none; it is checked like any other.
func (r *runner) finalRank(ctx context.Context) error {
	c := r.clients[0]
	r.calls++
	rk, err := c.Rank(ctx, rankDeadline)
	if err != nil {
		return fmt.Errorf("final rank: %w", err)
	}
	r.ranks = append(r.ranks, servedRank{Req: r.id(), Ranking: rk})
	return nil
}

// run executes the workload: vote generation, setupReps set-ups, the
// measured phase, checks, and in a traced run the replay.
func (r *runner) run(ctx context.Context) error {
	r.t0 = time.Now()
	var err error
	if r.st, err = r.wl.votes(r.cfg.seed, r.cfg.seconds); err != nil {
		return err
	}
	defer func() {
		// The last set-up's data stays for the caller to keep or delete.
		if r.leader != nil {
			r.leader.kill()
		}
	}()
	for i := range setupReps {
		if err := r.teardown(); err != nil {
			return err
		}
		start := time.Now()
		if err := r.wl.setup(ctx, r, filepath.Join(r.dir, fmt.Sprintf("leader-%d", i))); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.span(0, 0, "setup", start, time.Now(), "")
	}
	if err := r.wl.measure(ctx, r); err != nil {
		return fmt.Errorf("measured phase: %w", err)
	}
	r.requestSpans(r.span(0, 0, "measure", r.phase, time.Now(), ""))
	votes := r.check(ctx)
	if r.cfg.trace && len(r.failures) == 0 {
		if err := r.replay(ctx, votes); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}
