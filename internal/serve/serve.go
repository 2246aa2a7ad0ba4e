// Package serve implements the crowdrankd ranking daemon: crash-safe vote
// ingestion over a write-ahead journal (internal/journal) and on-demand
// ranking with deadline-aware degradation.
//
// The paper's non-interactive setting makes collected votes irreplaceable:
// the budget B is spent in one round, so a crash that loses delivered
// answers loses money. The daemon therefore acknowledges an ingest only
// after the batch is durable in the journal, and recovery replays the
// journal to rebuild exactly the acknowledged state — a torn or corrupted
// tail is detected, reported, and truncated rather than silently replayed.
//
// Rank requests carry deadlines and degrade instead of failing: an exact
// searcher (Held-Karp for small n, branch-and-bound beyond) when the
// budget allows, and otherwise the polished floor — the net-score order
// refined to an insertion local optimum (search.Greedy) — which answers
// even after the deadline has effectively expired. A circuit breaker
// trips the exact rung after repeated deadline overruns and probes it
// again (half-open) after a cooldown, so chronically slow instances stop
// paying for doomed exact attempts. Both rungs are deterministic at a
// fixed vote state, so the best answer produced at the current state
// generation is cached, and only an exact answer replaces a cached floor,
// until the votes change. After a served rank, a build-ahead goroutine
// prepares the next generation's closure and floor as soon as new votes
// arrive, so the rank that follows an ingest finds them cached.
package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/feq"
	"crowdrank/internal/journal"
	"crowdrank/internal/obs"
	"crowdrank/internal/snapshot"
	"crowdrank/internal/truth"
)

// Config configures the daemon. Zero-valued fields take the documented
// defaults; N and M are mandatory. DefaultConfig fills everything in.
type Config struct {
	// N is the number of objects being ranked; M the worker-pool size.
	// Votes outside [0, N) x [0, M) are dropped at ingest.
	N, M int

	// JournalPath is the write-ahead journal directory (segments and
	// snapshots live side by side in it); empty runs the daemon in-memory
	// only (acknowledged batches die with the process — tests and
	// throwaway experiments only). A version-1 single-file journal at this
	// path is migrated in place on first open.
	JournalPath string
	// JournalSync selects the append durability policy (default
	// journal.SyncAlways: fsync before every ack).
	JournalSync journal.SyncPolicy
	// JournalSegmentBytes is the segment rotation threshold; 0 means
	// journal.DefaultSegmentBytes.
	JournalSegmentBytes int64

	// SnapshotEveryBatches takes a snapshot (and compacts covered journal
	// segments) after that many acknowledged batches. 0 means the default
	// 1024; negative disables the batch trigger.
	SnapshotEveryBatches int
	// SnapshotMaxJournalBytes takes a snapshot whenever the live journal
	// exceeds this many bytes. 0 means the default 64 MiB; negative
	// disables the size trigger. POST /snapshot triggers one regardless.
	SnapshotMaxJournalBytes int64
	// SnapshotKeep is how many verified snapshots survive pruning: the
	// newest plus fallbacks in case the newest is damaged later. 0 means
	// the default 2; values below 1 are refused.
	SnapshotKeep int

	// Seed drives smoothing, making served rankings reproducible
	// and certifiable (pass it to CertifyRanking). 0 draws a time-derived
	// seed at startup; the effective seed is reported in every response.
	Seed uint64
	// Parallelism shards Step 3's walk sums (propagate.Params.Parallelism)
	// over this many goroutines; 0 or 1 is sequential. No other stage runs
	// in parallel.
	Parallelism int

	// ExactLimit is the largest n solved with Held-Karp on the exact rung;
	// beyond it the rung uses branch-and-bound. Default 16.
	ExactLimit int
	// ExactFraction is the share of the remaining deadline the exact rung
	// may spend, in (0, 1); the floor runs on whatever is left. Default
	// 0.5.
	ExactFraction float64
	// MinRungBudget is the smallest exact-rung budget worth starting
	// exact search with; below it the ladder goes straight to the floor.
	// Default 2ms.
	MinRungBudget time.Duration

	// DefaultDeadline applies to rank requests that carry none; deadlines
	// are clamped to MaxDeadline. Defaults 2s and 60s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxBatchVotes caps one ingest batch (HTTP 413 beyond). Default 65536.
	MaxBatchVotes int
	// MaxBodyBytes caps one POST /votes request body before decoding
	// starts (HTTP 413 beyond). 0 means the default 32 MiB.
	MaxBodyBytes int64
	// IngestTimeout bounds one POST /votes request server-side, so a
	// stalled journal cannot pin ingest slots forever. 0 means the default
	// 30s; negative disables the server-side bound (client deadlines still
	// apply).
	IngestTimeout time.Duration
	// IdempotencyWindow is how many batch acks are remembered (and
	// persisted through snapshots and journal records) for exactly-once
	// acknowledgement of retried batches. 0 means the default 65536;
	// negative disables the window — retried batches then re-apply and
	// rely on vote-level dedup alone.
	IdempotencyWindow int
	// MaxConcurrentRanks and MaxConcurrentIngests bound the request
	// queues; excess requests get HTTP 429 with Retry-After. Defaults 4
	// and 64.
	MaxConcurrentRanks   int
	MaxConcurrentIngests int

	// BreakerThreshold consecutive exact-rung deadline overruns open the
	// circuit breaker; BreakerCooldown later a single half-open probe may
	// close it again. Defaults 3 and 30s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Metrics receives the daemon's operational metrics and is served on
	// GET /metrics; nil creates a private registry. Use one registry per
	// server — two servers sharing one would fold their counts together.
	Metrics *obs.Registry
	// Clock supplies time to the degradation ladder, the circuit
	// breaker, request timing, and slow-request logging. nil means the
	// real clock; tests inject an obs.FakeClock to drive rung and
	// breaker transitions deterministically, without sleeps.
	Clock obs.Clock
	// SlowRequestThreshold logs (via Logf) any HTTP request that takes
	// longer, and counts it in crowdrankd_http_slow_requests_total.
	// 0 means the default 1s; negative disables slow-request logging.
	SlowRequestThreshold time.Duration

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultConfig returns the daemon configuration for n objects and m
// workers with every default made explicit.
func DefaultConfig(n, m int) Config {
	return Config{
		N:                       n,
		M:                       m,
		JournalSync:             journal.SyncAlways,
		SnapshotEveryBatches:    1024,
		SnapshotMaxJournalBytes: 64 << 20,
		SnapshotKeep:            2,
		ExactLimit:              16,
		ExactFraction:           0.5,
		MinRungBudget:           2 * time.Millisecond,
		DefaultDeadline:         2 * time.Second,
		MaxDeadline:             60 * time.Second,
		MaxBatchVotes:           65536,
		MaxBodyBytes:            32 << 20,
		IngestTimeout:           30 * time.Second,
		IdempotencyWindow:       65536,
		MaxConcurrentRanks:      4,
		MaxConcurrentIngests:    64,
		BreakerThreshold:        3,
		BreakerCooldown:         30 * time.Second,
		SlowRequestThreshold:    time.Second,
	}
}

// withDefaults fills zero fields and validates the result.
func (c Config) withDefaults() (Config, error) {
	d := DefaultConfig(c.N, c.M)
	if c.ExactLimit == 0 {
		c.ExactLimit = d.ExactLimit
	}
	if feq.Zero(c.ExactFraction) {
		c.ExactFraction = d.ExactFraction
	}
	if c.MinRungBudget == 0 {
		c.MinRungBudget = d.MinRungBudget
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = d.DefaultDeadline
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = d.MaxDeadline
	}
	if c.MaxBatchVotes == 0 {
		c.MaxBatchVotes = d.MaxBatchVotes
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.IngestTimeout == 0 {
		c.IngestTimeout = d.IngestTimeout
	}
	if c.IdempotencyWindow == 0 {
		c.IdempotencyWindow = d.IdempotencyWindow
	}
	if c.MaxConcurrentRanks == 0 {
		c.MaxConcurrentRanks = d.MaxConcurrentRanks
	}
	if c.MaxConcurrentIngests == 0 {
		c.MaxConcurrentIngests = d.MaxConcurrentIngests
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = d.BreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	if c.SnapshotEveryBatches == 0 {
		c.SnapshotEveryBatches = d.SnapshotEveryBatches
	}
	if c.SnapshotMaxJournalBytes == 0 {
		c.SnapshotMaxJournalBytes = d.SnapshotMaxJournalBytes
	}
	if c.SnapshotKeep == 0 {
		c.SnapshotKeep = d.SnapshotKeep
	}
	if c.SlowRequestThreshold == 0 {
		c.SlowRequestThreshold = d.SlowRequestThreshold
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = obs.Real()
	}
	if c.Seed == 0 {
		c.Seed = uint64(time.Now().UnixNano())
	}
	switch {
	case c.N < 1:
		return c, fmt.Errorf("serve: need at least one object, got N=%d", c.N)
	case c.M < 1:
		return c, fmt.Errorf("serve: need at least one worker, got M=%d", c.M)
	case c.ExactFraction <= 0 || c.ExactFraction >= 1:
		return c, fmt.Errorf("serve: ExactFraction %v outside (0,1)", c.ExactFraction)
	case c.ExactLimit < 1:
		return c, fmt.Errorf("serve: ExactLimit %d must be >= 1", c.ExactLimit)
	case c.MaxBatchVotes < 1 || c.MaxConcurrentRanks < 1 || c.MaxConcurrentIngests < 1:
		return c, fmt.Errorf("serve: batch and queue bounds must be >= 1")
	case c.MaxBodyBytes < 1:
		return c, fmt.Errorf("serve: MaxBodyBytes must be >= 1, got %d", c.MaxBodyBytes)
	case c.BreakerThreshold < 1 || c.BreakerCooldown < 0:
		return c, fmt.Errorf("serve: breaker threshold must be >= 1 and cooldown non-negative")
	case c.DefaultDeadline < 0 || c.MaxDeadline <= 0 || c.MinRungBudget < 0:
		return c, fmt.Errorf("serve: deadlines must be positive")
	case c.SnapshotKeep < 1:
		return c, fmt.Errorf("serve: SnapshotKeep must be >= 1 (the newest snapshot must survive pruning), got %d", c.SnapshotKeep)
	}
	return c, nil
}

// Server is the daemon engine: journaled vote state plus the degradation
// ladder. Create with New or NewContext, serve HTTP via Handler, and stop
// with Close.
type Server struct {
	cfg       Config
	jnl       *journal.Journal // nil when running in-memory
	recovered RecoveryStats
	logf      func(string, ...any)

	// clock is cfg.Clock; met the metric bundle on cfg.Metrics; started
	// the construction instant (uptime); recoveryDur how long startup
	// recovery took. All immutable after NewContext returns.
	clock       obs.Clock
	met         *metrics
	started     time.Time
	recoveryDur time.Duration

	// writeMu orders every journal append with its apply: under it the
	// journal's NextSeq always equals the number of batches folded into
	// memory, which is the invariant that lets a snapshot equate its
	// coverage sequence with the state it captured.
	writeMu sync.Mutex
	// snapMu serializes snapshot writers (policy trigger vs POST
	// /snapshot); sinceSnap counts acked batches since the last snapshot.
	snapMu    sync.Mutex
	sinceSnap atomic.Int64

	mu           sync.RWMutex
	votes        []crowd.Vote
	seen         *dedupSet
	acks         map[string]IngestResult // batch idempotency window
	ackOrder     []string                // FIFO eviction order for acks
	gen          uint64                  // bumped whenever votes change; keys the per-generation cache
	batches      int                     // journal records acknowledged or replayed
	dupVotes     int                     // exact duplicates suppressed by apply
	malformed    int                     // votes dropped at ingest since start (not journaled)
	lastSnapSeq  uint64                  // coverage of the newest snapshot on disk
	lastSnapGen  uint64
	lastSnapPath string

	// cacheMu guards entry, the per-generation closure and ranking cache,
	// and index, the Steps 1-3 vote index the builds fold new votes into
	// (rank.go). index holds a prefix of votes; nil until the first build.
	cacheMu sync.Mutex
	entry   genEntry
	index   *truth.Index

	// ahead is the build-ahead goroutine's wake-up and lifecycle
	// (ahead.go).
	ahead ahead

	breaker   *breaker
	rankSem   chan struct{}
	ingestSem chan struct{}

	// closeMu is held shared by every in-flight ingest/rank and
	// exclusively by Close, so shutdown drains in-flight work before the
	// final journal sync. closing makes new requests fail fast instead of
	// queueing behind the pending writer lock.
	closeMu sync.RWMutex
	closing atomic.Bool
}

// New is NewContext with a background context.
func New(cfg Config) (*Server, error) {
	return NewContext(context.Background(), cfg)
}

// NewContext validates cfg, opens (and replays) the journal, and returns a
// ready server. Replaying a large journal honors ctx: cancellation aborts
// recovery with ctx's error and leaves the journal untouched.
func NewContext(ctx context.Context, cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		logf:      cfg.Logf,
		clock:     cfg.Clock,
		met:       newMetrics(cfg.Metrics),
		seen:      newDedupSet(cfg.N, cfg.M),
		acks:      make(map[string]IngestResult),
		ahead:     newAhead(),
		breaker:   newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		rankSem:   make(chan struct{}, cfg.MaxConcurrentRanks),
		ingestSem: make(chan struct{}, cfg.MaxConcurrentIngests),
	}
	s.started = s.clock.Now()
	s.breaker.trips = s.met.breakerTrips
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if cfg.JournalPath != "" {
		recoverStart := s.clock.Now()
		if err := s.recover(ctx, cfg); err != nil {
			return nil, err
		}
		s.recoveryDur = s.clock.Since(recoverStart)
		s.logf("journal %s: %s in %v", cfg.JournalPath, s.recovered, s.recoveryDur.Round(time.Millisecond))
	}
	s.registerGauges()
	go s.runAhead()
	return s, nil
}

// recover rebuilds state from the newest valid snapshot plus a journal
// suffix replay. Candidates are tried newest snapshot first, ending with a
// full replay; a snapshot that fails to load, belongs to a different
// universe, or no longer meets the surviving journal segments is refused
// loudly (recorded in RecoveryStats.CorruptSnapshots) and the next
// candidate is tried. When nothing covers the surviving segments the
// daemon refuses to start rather than serve a state with a hole in it.
func (s *Server) recover(ctx context.Context, cfg Config) error {
	entries, err := snapshot.List(cfg.JournalPath)
	if err != nil {
		return fmt.Errorf("serve: listing snapshots: %w", err)
	}
	var corrupt []string
	// Each phase's time is summed over every candidate tried, so refused
	// snapshots show up where they cost.
	var loadDur, seedDur, replayDur time.Duration
	refuse := func(path string, why error) {
		corrupt = append(corrupt, fmt.Sprintf("%s: %v", filepath.Base(path), why))
		s.logf("serve: refusing snapshot %s: %v", path, why)
	}
	replay := func(payload []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, err := decodeBatchRecord(payload, cfg.N, cfg.M)
		if err != nil {
			// A record that passed its checksum but does not decode is
			// a foreign or incompatible journal — refuse to serve from
			// it rather than guess.
			return fmt.Errorf("serve: undecodable batch: %w", err)
		}
		added, dups := s.apply(rec.votes)
		if rec.key != "" {
			// Rebuild the exact ack the batch originally received, so a
			// retry of this key after the crash is acked without reapply.
			s.mu.Lock()
			s.recordAckLocked(rec.key, IngestResult{
				Accepted:   added,
				Duplicates: dups,
				Malformed:  rec.malformed,
				Seq:        s.batches,
				TotalVotes: len(s.votes),
			})
			s.mu.Unlock()
		}
		return nil
	}
	// One trailing candidate past the snapshot list is the no-snapshot
	// full replay.
	for i := 0; i <= len(entries); i++ {
		var st snapshot.State
		var path string
		if i < len(entries) {
			path = entries[i].Path
			loadStart := s.clock.Now()
			st, err = snapshot.Load(path)
			loadDur += s.clock.Since(loadStart)
			if err != nil {
				refuse(path, err)
				continue
			}
			if st.N != cfg.N || st.M != cfg.M {
				refuse(path, fmt.Errorf("universe (%d,%d) does not match configured (%d,%d)", st.N, st.M, cfg.N, cfg.M))
				continue
			}
		}
		seedStart := s.clock.Now()
		err = s.seedFromSnapshot(st)
		seedDur += s.clock.Since(seedStart)
		if err != nil {
			refuse(path, err)
			continue
		}
		opts := journal.Options{
			Sync:         cfg.JournalSync,
			SegmentBytes: cfg.JournalSegmentBytes,
			ReplayFrom:   st.Seq,
			Faults:       testJournalFaults,
			Metrics:      s.met.journal,
		}
		replayStart := s.clock.Now()
		jnl, stats, err := journal.Open(cfg.JournalPath, opts, replay)
		replayDur += s.clock.Since(replayStart)
		switch {
		case err == nil:
			s.jnl = jnl
			s.recovered = RecoveryStats{
				ReplayStats:      stats,
				SnapshotPath:     path,
				SnapshotSeq:      st.Seq,
				SnapshotGen:      st.Gen,
				SnapshotVotes:    len(st.Votes),
				CorruptSnapshots: corrupt,
				SnapshotLoad:     loadDur,
				Seed:             seedDur,
				Replay:           replayDur,
			}
			s.mu.Lock()
			s.lastSnapSeq, s.lastSnapGen, s.lastSnapPath = st.Seq, st.Gen, path
			s.mu.Unlock()
			return nil
		case i < len(entries) && errors.Is(err, journal.ErrSeqGap):
			// The surviving segments start after this snapshot's coverage:
			// records in between are gone, so the snapshot cannot be
			// extended. A newer candidate already failed; older ones cover
			// even less, but a full replay may still work if segment 1
			// survived.
			refuse(path, err)
			continue
		default:
			// Unwritable directory, foreign files, an undecodable batch,
			// ctx cancellation: no other candidate fixes these.
			return err
		}
	}
	return fmt.Errorf("serve: journal %s: no snapshot covers the surviving segments (refused: %s): %w",
		cfg.JournalPath, strings.Join(corrupt, "; "), journal.ErrSeqGap)
}

// seedFromSnapshot resets the in-memory state to exactly what the snapshot
// captured (the zero State resets to empty). The dedup set is not
// serialized — it is recomputed from the votes, and a collision means the
// snapshot does not describe a state apply could have produced. The set is
// sized from the configured universe, never from st: the zero State of a
// full replay carries N=0, and recover refuses any snapshot whose
// universe differs from the configured one before seeding from it.
func (s *Server) seedFromSnapshot(st snapshot.State) error {
	seen := newDedupSet(s.cfg.N, s.cfg.M)
	for _, v := range st.Votes {
		if !seen.add(v) {
			return fmt.Errorf("duplicate submission %+v in snapshot", v)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.votes = st.Votes
	s.seen = seen
	s.gen = st.Gen
	s.batches = int(st.Seq)
	s.dupVotes = st.DupVotes
	// Restore the ack window (oldest first, preserving eviction order) so
	// batch retries straddling the restart still replay their original ack.
	s.acks = make(map[string]IngestResult, len(st.Acks))
	s.ackOrder = s.ackOrder[:0]
	for _, a := range st.Acks {
		s.recordAckLocked(a.Key, IngestResult{
			Accepted:   a.Accepted,
			Duplicates: a.Duplicates,
			Malformed:  a.Malformed,
			Seq:        a.Seq,
			TotalVotes: a.TotalVotes,
		})
	}
	return nil
}

// lookupAck returns the remembered ack for key, if the idempotency window
// still holds it.
func (s *Server) lookupAck(key string) (IngestResult, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, ok := s.acks[key]
	return res, ok
}

// recordAckLocked remembers one batch ack under its idempotency key,
// evicting the oldest entries beyond the window. Callers hold s.mu.
func (s *Server) recordAckLocked(key string, res IngestResult) {
	if s.cfg.IdempotencyWindow <= 0 {
		return
	}
	if _, ok := s.acks[key]; ok {
		return
	}
	s.acks[key] = res
	s.ackOrder = append(s.ackOrder, key)
	for len(s.ackOrder) > s.cfg.IdempotencyWindow {
		delete(s.acks, s.ackOrder[0])
		s.ackOrder = s.ackOrder[1:]
	}
}

// ackWindowLocked copies the ack window oldest-first for a snapshot.
// Callers hold s.mu (read or write).
func (s *Server) ackWindowLocked() []snapshot.AckEntry {
	if len(s.ackOrder) == 0 {
		return nil
	}
	out := make([]snapshot.AckEntry, 0, len(s.ackOrder))
	for _, key := range s.ackOrder {
		res := s.acks[key]
		out = append(out, snapshot.AckEntry{
			Key:        key,
			Accepted:   res.Accepted,
			Duplicates: res.Duplicates,
			Malformed:  res.Malformed,
			Seq:        res.Seq,
			TotalVotes: res.TotalVotes,
		})
	}
	return out
}

// apply folds one validated batch into the in-memory state, suppressing
// exact duplicate submissions, and returns what was added. Live ingest,
// replicated records and journal replay all go through apply, so recovery
// rebuilds the identical vote set. A batch that moves the generation after
// a served rank wakes the build-ahead; recovery replay never does, since
// no rank is served before NewContext returns.
func (s *Server) apply(votes []crowd.Vote) (added, dups int) {
	defer func() {
		if added > 0 {
			s.ahead.fire()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range votes {
		if !s.seen.add(v) {
			dups++
			continue
		}
		s.votes = append(s.votes, v)
		added++
	}
	s.batches++
	s.dupVotes += dups
	if added > 0 {
		s.gen++
	}
	return added, dups
}

// Ingest validates, journals, and applies one vote batch; it is the
// library form of POST /votes. A nil error means the batch is durable
// (fsynced under journal.SyncAlways) and will survive a crash.
func (s *Server) Ingest(votes []crowd.Vote) (IngestResult, error) {
	return s.IngestContext(context.Background(), votes)
}

// IngestContext is Ingest honoring ctx up to the durability point: a batch
// cancelled before the journal append is refused with ctx's error and
// nothing is written. Once the append starts the batch commits atomically
// — there is no cancelling a half-fsynced record — so a ctx that expires
// later does not un-acknowledge it.
func (s *Server) IngestContext(ctx context.Context, votes []crowd.Vote) (IngestResult, error) {
	return s.IngestKeyed(ctx, "", votes)
}

// IngestKeyed is IngestContext under a client-chosen idempotency key (the
// library form of POST /votes with an Idempotency-Key header). While the
// key stays inside the idempotency window, a repeated IngestKeyed — a
// network retry after a lost ack, before or after a daemon restart —
// returns the original acknowledgement with Replayed set, without
// journaling or applying the batch a second time. An empty key ingests
// without idempotency, exactly like IngestContext.
func (s *Server) IngestKeyed(ctx context.Context, key string, votes []crowd.Vote) (IngestResult, error) {
	if len(key) > maxKeyLen {
		return IngestResult{}, fmt.Errorf("serve: idempotency key of %d bytes exceeds maximum %d: %w", len(key), maxKeyLen, errKeyTooLong)
	}
	res, err := s.ingest(ctx, key, votes)
	if err == nil {
		// The batch is durable and acknowledged whatever the snapshot
		// policy does next; maybeSnapshot runs outside the shutdown lock
		// so Close never deadlocks behind a policy-triggered snapshot.
		s.maybeSnapshot()
	}
	return res, err
}

func (s *Server) ingest(ctx context.Context, key string, votes []crowd.Vote) (IngestResult, error) {
	var res IngestResult
	if s.closing.Load() {
		return res, errShuttingDown
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing.Load() {
		return res, errShuttingDown
	}
	// Fast path for a retried key: answer from the ack window before
	// spending any validation or journal work.
	if key != "" {
		if cached, ok := s.lookupAck(key); ok {
			s.met.idempotentReplays.Inc()
			cached.Replayed = true
			return cached, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if len(votes) > s.cfg.MaxBatchVotes {
		return res, fmt.Errorf("serve: batch of %d votes exceeds cap %d: %w", len(votes), s.cfg.MaxBatchVotes, errBatchTooLarge)
	}
	valid := make([]crowd.Vote, 0, len(votes))
	for _, v := range votes {
		if v.Validate(s.cfg.N, s.cfg.M) != nil {
			res.Malformed++
			continue
		}
		valid = append(valid, v)
	}
	s.mu.Lock()
	s.malformed += res.Malformed
	s.mu.Unlock()
	s.met.ingestMalformed.Add(uint64(res.Malformed))
	if len(valid) == 0 {
		// Nothing durable to write, but the ack is still remembered so a
		// network retry of this key replays instead of re-validating. (An
		// all-malformed batch journals nothing, so this entry does not
		// survive a restart — there is no applied state to protect.)
		s.mu.Lock()
		res.Seq = s.batches
		res.TotalVotes = len(s.votes)
		if key != "" {
			s.recordAckLocked(key, res)
		}
		s.mu.Unlock()
		return res, nil
	}
	// Last chance to honor cancellation: past this point the batch
	// commits.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	// writeMu makes append→apply atomic with respect to other ingests, so
	// journal order and apply order agree and a concurrent snapshot can
	// never observe a NextSeq whose record is not yet in memory.
	s.writeMu.Lock()
	// Authoritative replay check: a concurrent retry of the same key may
	// have committed between the fast path above and acquiring writeMu.
	// Under writeMu no other append can interleave, so a miss here
	// guarantees this goroutine is the one that journals the batch.
	if key != "" {
		if cached, ok := s.lookupAck(key); ok {
			s.writeMu.Unlock()
			s.met.idempotentReplays.Inc()
			cached.Replayed = true
			return cached, nil
		}
	}
	if s.jnl != nil {
		payload := encodeBatch(valid)
		if key != "" {
			// Keyed batches journal their key and malformed count, so
			// replay after a crash rebuilds the identical ack.
			payload = encodeBatchKeyed(key, res.Malformed, valid)
		}
		//lint:ignore lockcheck durable-before-ack: the append (and its fsync) must finish under writeMu before apply so journal order equals apply order, and under closeMu so shutdown cannot close the journal mid-batch
		if _, err := s.jnl.Append(payload); err != nil {
			s.writeMu.Unlock()
			return res, fmt.Errorf("serve: journaling batch: %w", err)
		}
	}
	res.Accepted, res.Duplicates = s.apply(valid)
	// Capture the ack fields and record the key in the same mu hold as the
	// apply's effects, still under writeMu: the remembered ack is exactly
	// what this request returns.
	s.mu.Lock()
	res.Seq = s.batches
	res.TotalVotes = len(s.votes)
	if key != "" {
		s.recordAckLocked(key, res)
	}
	s.mu.Unlock()
	s.writeMu.Unlock()
	s.met.ingestBatches.Inc()
	s.met.ingestAccepted.Add(uint64(res.Accepted))
	s.met.ingestDuplicate.Add(uint64(res.Duplicates))
	s.sinceSnap.Add(1)
	return res, nil
}

// maybeSnapshot applies the snapshot policy after one acknowledged batch:
// a snapshot is taken when enough batches or journal bytes accumulated
// since the last one. Failures are logged, never propagated — the batch
// that tripped the policy is already durable and acknowledged.
func (s *Server) maybeSnapshot() {
	if s.jnl == nil {
		return
	}
	every, maxBytes := s.cfg.SnapshotEveryBatches, s.cfg.SnapshotMaxJournalBytes
	trigger := (every > 0 && s.sinceSnap.Load() >= int64(every)) ||
		(maxBytes > 0 && s.jnl.Size() >= maxBytes)
	if !trigger {
		return
	}
	if _, err := s.Snapshot(); err != nil && !errors.Is(err, errShuttingDown) {
		s.logf("serve: policy-triggered snapshot failed: %v", err)
	}
}

// SnapshotResult describes one completed snapshot+compaction cycle.
type SnapshotResult struct {
	// Path is the snapshot file; Seq the journal sequence it covers (a
	// restart replays only records >= Seq); Gen the state generation and
	// Votes the deduplicated vote count captured.
	Path  string `json:"path"`
	Seq   uint64 `json:"seq"`
	Gen   uint64 `json:"gen"`
	Votes int    `json:"votes"`
	// SegmentsDeleted counts journal segments compacted away;
	// SnapshotsPruned older snapshot files removed.
	SegmentsDeleted int `json:"segments_deleted"`
	SnapshotsPruned int `json:"snapshots_pruned"`
}

// Snapshot captures the current state into a checksummed snapshot file,
// verifies it by reading it back, and only then compacts the journal
// segments it covers. It is the library form of POST /snapshot; the
// snapshot policy calls it too. Safe for concurrent use; an in-memory
// server (no journal) refuses.
func (s *Server) Snapshot() (SnapshotResult, error) {
	var res SnapshotResult
	if s.jnl == nil {
		return res, errNoJournal
	}
	if s.closing.Load() {
		return res, errShuttingDown
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	// Capture a consistent cut: under writeMu no append is between its
	// journal write and its apply, so NextSeq is exactly the coverage of
	// the in-memory state. The vote slice is append-only, so the
	// three-index slice stays immutable after the locks drop.
	s.writeMu.Lock()
	s.mu.RLock()
	st := snapshot.State{
		N:        s.cfg.N,
		M:        s.cfg.M,
		Seq:      s.jnl.NextSeq(),
		Gen:      s.gen,
		DupVotes: s.dupVotes,
		Votes:    s.votes[:len(s.votes):len(s.votes)],
		Acks:     s.ackWindowLocked(),
	}
	s.mu.RUnlock()
	s.writeMu.Unlock()
	s.sinceSnap.Store(0)

	writeStart := s.clock.Now()
	//lint:ignore lockcheck snapMu exists to serialize snapshot writing/compaction end to end; ingest and rank never take it, so holding it across the file I/O blocks only a competing snapshot
	path, err := snapshot.Write(s.jnl.Dir(), st)
	if err != nil {
		s.met.snapshotFailed.Inc()
		return res, fmt.Errorf("serve: writing snapshot: %w", err)
	}
	s.met.snapshotWriteSeconds.ObserveDuration(s.clock.Since(writeStart))
	// Read-back verification: no journal byte is deleted on the strength
	// of a snapshot that cannot actually be loaded.
	loadStart := s.clock.Now()
	if _, err := snapshot.Load(path); err != nil {
		s.met.snapshotFailed.Inc()
		return res, fmt.Errorf("serve: snapshot %s failed read-back verification, journal retained: %w", path, err)
	}
	s.met.snapshotLoadSeconds.ObserveDuration(s.clock.Since(loadStart))
	deleted, err := s.jnl.CompactThrough(st.Seq)
	if err != nil {
		s.met.snapshotFailed.Inc()
		return res, fmt.Errorf("serve: snapshot %s written but compaction failed: %w", path, err)
	}
	pruned, err := snapshot.Prune(s.jnl.Dir(), s.cfg.SnapshotKeep)
	if err != nil {
		// Stale snapshots waste disk but threaten nothing; keep going.
		s.logf("serve: pruning old snapshots: %v", err)
	}
	s.met.snapshotOK.Inc()
	s.met.snapshotsPruned.Add(uint64(len(pruned)))
	s.mu.Lock()
	s.lastSnapSeq, s.lastSnapGen, s.lastSnapPath = st.Seq, st.Gen, path
	s.mu.Unlock()
	res = SnapshotResult{
		Path:            path,
		Seq:             st.Seq,
		Gen:             st.Gen,
		Votes:           len(st.Votes),
		SegmentsDeleted: deleted,
		SnapshotsPruned: len(pruned),
	}
	s.logf("serve: snapshot %s: seq %d, %d votes, %d segments compacted", path, st.Seq, len(st.Votes), deleted)
	return res, nil
}

// IngestResult describes one acknowledged batch.
type IngestResult struct {
	// Accepted counts votes added to the state; Duplicates exact
	// re-submissions suppressed; Malformed votes dropped at validation.
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	Malformed  int `json:"malformed"`
	// Seq is the journal sequence number of this batch (records appended
	// or replayed so far).
	Seq int `json:"seq"`
	// TotalVotes is the state size after this batch.
	TotalVotes int `json:"total_votes"`
	// Replayed marks an acknowledgement served from the idempotency
	// window: the batch was already durable from an earlier delivery of
	// the same key and was NOT applied again.
	Replayed bool `json:"replayed,omitempty"`
}

// snapshot returns the current vote slice and its generation. The slice is
// append-only, so sharing the backing array with concurrent appends is
// safe: a later append either fits capacity (beyond our length) or
// reallocates.
func (s *Server) snapshot() ([]crowd.Vote, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.votes[:len(s.votes):len(s.votes)], s.gen
}

// VoteCount returns the deduplicated vote count.
func (s *Server) VoteCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.votes)
}

// Stats is a point-in-time operational snapshot, served on /healthz.
type Stats struct {
	Objects    int `json:"objects"`
	Workers    int `json:"workers"`
	Votes      int `json:"votes"`
	Batches    int `json:"batches"`
	Duplicates int `json:"duplicates"`
	Malformed  int `json:"malformed"`
	// AckWindow is how many batch idempotency keys are currently
	// remembered for exactly-once acknowledgement; AckWindowCapacity is
	// the configured window size (0 when the window is disabled).
	// Occupancy at capacity means the window is evicting — a client
	// retrying a batch older than the window would re-apply it.
	AckWindow         int    `json:"ack_window"`
	AckWindowCapacity int    `json:"ack_window_capacity"`
	Seed              uint64 `json:"seed"`
	Breaker           string `json:"breaker"`
	Journal           string `json:"journal,omitempty"`
	// Disk accounting, for alerting on unbounded growth: live journal
	// bytes and segment count, plus bytes held by snapshot files.
	JournalBytes    int64 `json:"journal_bytes"`
	JournalSegments int   `json:"journal_segments"`
	SnapshotBytes   int64 `json:"snapshot_bytes"`
	// LastSnapshotSeq/Gen identify the newest snapshot on disk (0/0 when
	// none has been taken).
	LastSnapshotSeq uint64 `json:"last_snapshot_seq"`
	LastSnapshotGen uint64 `json:"last_snapshot_gen"`
	// LastSyncError is empty while the journal is healthy; non-empty
	// means the journal is poisoned by a disk fault and the daemon is
	// refusing writes (readyz 503).
	LastSyncError string `json:"last_sync_error"`
	// Recovered describes the last journal replay.
	RecoveredBatches int   `json:"recovered_batches"`
	TruncatedBytes   int64 `json:"truncated_bytes"`
	Closing          bool  `json:"closing"`
	// UptimeSeconds is time since construction and RecoverySeconds the
	// startup recovery cost. Both are measured with the server clock's
	// monotonic Since — a wall-clock jump (NTP step) mid-flight cannot
	// make them negative or wrong.
	UptimeSeconds   float64 `json:"uptime_seconds"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	// RecoveryPhasesMS splits the startup recovery into its phases.
	RecoveryPhasesMS RecoveryPhases `json:"recovery_phases_ms"`
}

// RecoveryPhases is where startup recovery spent its time, in
// milliseconds: loading and verifying snapshot files, seeding the dedup
// set and ack window from the chosen snapshot, and opening the journal
// and replaying its suffix.
type RecoveryPhases struct {
	Snapshot float64 `json:"snapshot"`
	Seed     float64 `json:"seed"`
	Replay   float64 `json:"replay"`
}

// StatsSnapshot assembles the current Stats.
func (s *Server) StatsSnapshot() Stats {
	s.mu.RLock()
	st := Stats{
		Objects:           s.cfg.N,
		Workers:           s.cfg.M,
		Votes:             len(s.votes),
		Batches:           s.batches,
		Duplicates:        s.dupVotes,
		Malformed:         s.malformed,
		AckWindow:         len(s.acks),
		Seed:              s.cfg.Seed,
		AckWindowCapacity: max(s.cfg.IdempotencyWindow, 0),
		LastSnapshotSeq:   s.lastSnapSeq,
		LastSnapshotGen:   s.lastSnapGen,
		RecoveredBatches:  s.recovered.Records,
		TruncatedBytes:    s.recovered.TruncatedBytes,
		Closing:           s.closing.Load(),
		UptimeSeconds:     s.clock.Since(s.started).Seconds(),
		RecoverySeconds:   s.recoveryDur.Seconds(),
		RecoveryPhasesMS: RecoveryPhases{
			Snapshot: ms(s.recovered.SnapshotLoad),
			Seed:     ms(s.recovered.Seed),
			Replay:   ms(s.recovered.Replay),
		},
	}
	s.mu.RUnlock()
	st.Breaker = s.breaker.state()
	if s.jnl != nil {
		st.Journal = s.jnl.Dir()
		st.JournalBytes = s.jnl.Size()
		st.JournalSegments = s.jnl.Segments()
		st.SnapshotBytes = snapshot.DiskUsage(s.jnl.Dir())
		if err := s.jnl.Poisoned(); err != nil {
			st.LastSyncError = err.Error()
		}
	}
	return st
}

// RecoveryStats describes how startup rebuilt the state: which snapshot
// seeded it (if any), the journal suffix replay on top, and every
// snapshot candidate that was refused.
type RecoveryStats struct {
	journal.ReplayStats

	// SnapshotPath is the snapshot that seeded recovery; empty means full
	// journal replay. SnapshotSeq/Gen/Votes describe what it carried.
	SnapshotPath  string
	SnapshotSeq   uint64
	SnapshotGen   uint64
	SnapshotVotes int
	// CorruptSnapshots lists "file: reason" for every snapshot refused
	// during recovery — never silently, always here and in the log.
	CorruptSnapshots []string
	// SnapshotLoad, Seed and Replay time the recovery phases, each summed
	// over every candidate tried: snapshot.Load, seedFromSnapshot, and
	// the journal open with its suffix replay.
	SnapshotLoad, Seed, Replay time.Duration
}

// String summarizes the recovery for startup logs.
func (r RecoveryStats) String() string {
	var b strings.Builder
	if r.SnapshotPath != "" {
		fmt.Fprintf(&b, "loaded snapshot %s (seq %d, %d votes), then ",
			filepath.Base(r.SnapshotPath), r.SnapshotSeq, r.SnapshotVotes)
	}
	b.WriteString(r.ReplayStats.String())
	if len(r.CorruptSnapshots) > 0 {
		fmt.Fprintf(&b, "; refused %d snapshot(s): %s",
			len(r.CorruptSnapshots), strings.Join(r.CorruptSnapshots, "; "))
	}
	fmt.Fprintf(&b, "; phases: snapshot %.1fms, seed %.1fms, replay %.1fms",
		ms(r.SnapshotLoad), ms(r.Seed), ms(r.Replay))
	return b.String()
}

// ms converts d to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Recovered reports the snapshot-load and journal replay performed at
// startup.
func (s *Server) Recovered() RecoveryStats { return s.recovered }

// Seed returns the effective pipeline seed (drawn at startup when the
// config left it 0). Pass it to CertifyRanking to certify served rankings.
func (s *Server) Seed() uint64 { return s.cfg.Seed }

// Metrics returns the server's metric registry — the one Config.Metrics
// supplied, or the private registry created when it was nil. Handler
// serves it on GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// errShuttingDown is returned by requests that arrive during Close;
// errBatchTooLarge by batches over MaxBatchVotes. The HTTP layer maps them
// to 503 and 413.
var (
	errShuttingDown  = fmt.Errorf("serve: server is shutting down")
	errBatchTooLarge = fmt.Errorf("serve: batch exceeds MaxBatchVotes")
	errNoJournal     = fmt.Errorf("serve: server is running in-memory; nothing to snapshot")
	errKeyTooLong    = fmt.Errorf("serve: idempotency key too long")
)

// testJournalFaults is the disk-fault injection seam: tests point it at a
// journal.Faults before constructing the server to simulate failed writes
// and fsyncs ("fsyncgate"). Always nil in production.
var testJournalFaults *journal.Faults

// Ready reports whether the server can currently promise durability: nil
// while healthy, an error once shutdown has begun or the journal is
// poisoned (disk fault, or deposition fencing by the replication layer).
// It is the library form of GET /readyz.
func (s *Server) Ready() error {
	if s.closing.Load() {
		return errShuttingDown
	}
	if s.jnl != nil {
		if err := s.jnl.Poisoned(); err != nil {
			// fsyncgate semantics: a failed fsync may have dropped dirty
			// pages, so the only honest readiness answer is "no".
			return err
		}
	}
	return nil
}

// Journal exposes the server's journal; nil when running in-memory. The
// replication layer streams records out of it on the leader, and fences a
// deposed leader by poisoning it.
func (s *Server) Journal() *journal.Journal { return s.jnl }

// StateSnapshot captures a consistent point-in-time snapshot.State — the
// same cut Snapshot persists, without writing anything. The leader serves
// it on GET /replicate/snapshot to bootstrap fresh followers.
func (s *Server) StateSnapshot() snapshot.State {
	s.writeMu.Lock()
	s.mu.RLock()
	st := snapshot.State{
		N:        s.cfg.N,
		M:        s.cfg.M,
		Seq:      uint64(s.batches),
		Gen:      s.gen,
		DupVotes: s.dupVotes,
		Votes:    s.votes[:len(s.votes):len(s.votes)],
		Acks:     s.ackWindowLocked(),
	}
	if s.jnl != nil {
		// Under writeMu no append is between its journal write and its
		// apply, so NextSeq is exactly the coverage of the state above.
		st.Seq = s.jnl.NextSeq()
	}
	s.mu.RUnlock()
	s.writeMu.Unlock()
	return st
}

// ApplyReplicated journals and applies one batch record received from a
// replication stream. seq is the sequence the record carries on the
// leader; the follower's journal must be exactly there — a mismatch means
// the stream and the local journal diverged (matching journal.ErrSeqGap)
// and the follower must resync rather than guess. The payload is appended
// verbatim, keeping a follower's journal byte-for-byte the leader's
// record stream, then folded into memory exactly like recovery replay —
// including rebuilding keyed acks, so the idempotency window follows the
// leader and a client retry after failover replays instead of re-applying.
func (s *Server) ApplyReplicated(seq uint64, payload []byte) error {
	err := s.applyReplicated(seq, payload)
	if err == nil {
		// Followers run the same snapshot+compaction policy as the leader,
		// outside the locks applyReplicated held.
		s.maybeSnapshot()
	}
	return err
}

func (s *Server) applyReplicated(seq uint64, payload []byte) error {
	if s.closing.Load() {
		return errShuttingDown
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing.Load() {
		return errShuttingDown
	}
	rec, err := decodeBatchRecord(payload, s.cfg.N, s.cfg.M)
	if err != nil {
		// A record that does not decode is a foreign or incompatible
		// stream — refuse it rather than guess, same as recovery.
		return fmt.Errorf("serve: undecodable replicated batch: %w", err)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.jnl != nil {
		if got := s.jnl.NextSeq(); got != seq {
			return fmt.Errorf("serve: replicated record carries seq %d but the local journal is at %d: %w",
				seq, got, journal.ErrSeqGap)
		}
		//lint:ignore lockcheck durable-before-apply, exactly like ingest: the append must finish under writeMu so journal order equals apply order
		if _, err := s.jnl.Append(payload); err != nil {
			return fmt.Errorf("serve: journaling replicated batch: %w", err)
		}
	}
	added, dups := s.apply(rec.votes)
	if rec.key != "" {
		s.mu.Lock()
		s.recordAckLocked(rec.key, IngestResult{
			Accepted:   added,
			Duplicates: dups,
			Malformed:  rec.malformed,
			Seq:        s.batches,
			TotalVotes: len(s.votes),
		})
		s.mu.Unlock()
	}
	s.met.ingestAccepted.Add(uint64(added))
	s.met.ingestDuplicate.Add(uint64(dups))
	s.sinceSnap.Add(1)
	return nil
}

// Close drains in-flight work and performs the final journal sync. After
// Close, ingest and rank requests fail fast (HTTP 503); Close is
// idempotent.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	// Stop the build-ahead first: it holds closeMu shared while it builds.
	close(s.ahead.stop)
	<-s.ahead.done
	// Wait for every in-flight ingest and inference to release its shared
	// lock, then close (and thereby sync) the journal.
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.jnl != nil {
		//lint:ignore lockcheck shutdown by design: holding closeMu exclusively across the final sync+close is exactly the drain barrier that keeps ingest/rank from touching a closing journal
		if err := s.jnl.Close(); err != nil {
			return fmt.Errorf("serve: closing journal: %w", err)
		}
	}
	return nil
}
