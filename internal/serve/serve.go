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
// Rank requests carry deadlines and degrade instead of failing. Each
// generation's polished floor — the net-score order refined to an
// insertion local optimum (search.Greedy) — is searched once and answers
// even after the deadline has expired. Exact search — branch-and-bound
// seeded with the floor, capped by work and stopped early only by the
// request's own deadline — is attempted when that deadline has not yet
// passed. A circuit breaker trips the exact rung after repeated cap hits
// or deadline overruns and probes it again (half-open) after a cooldown,
// so chronically hard instances stop paying for doomed exact attempts.
// Both rungs are deterministic at a fixed vote state, so the best answer
// produced at the current state generation is cached, and only an exact
// answer replaces a cached floor, until the votes change. After a served rank, a build-ahead goroutine
// prepares the next generation's closure and floor as soon as new votes
// arrive, so the rank that follows an ingest finds them cached.
//
// The vote state itself is one lock-free state machine, voteState
// (state.go), and the journal has one writer, Server.commit: live ingest
// and replicated records append their record and then apply it there,
// recovery replays records through voteState.apply, and snapshot
// recovery seeds it. Every path that can build a state therefore builds
// it from the same records by the same code.
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
	// throwaway experiments only). A regular file at this path, such as a
	// version-1 single-file journal, is refused.
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

	// MaxBatchVotes caps one ingest batch (HTTP 413 beyond). Default 65536.
	MaxBatchVotes int
	// MaxBodyBytes caps one POST /votes request body before decoding
	// starts (HTTP 413 beyond). 0 means the default 32 MiB.
	MaxBodyBytes int64
	// IdempotencyWindow is how many batch acks are remembered (and
	// persisted through snapshots and journal records) for exactly-once
	// acknowledgement of retried batches. 0 means the default 65536;
	// negative disables the window — retried batches then re-apply and
	// rely on vote-level dedup alone.
	IdempotencyWindow int
	// MaxConcurrentRanks and MaxConcurrentIngests bound the request
	// queues; excess requests get HTTP 429 with Retry-After: 5. Defaults
	// 4 and 64.
	MaxConcurrentRanks   int
	MaxConcurrentIngests int

	// BreakerThreshold consecutive exact-rung overruns (work cap or
	// deadline) open the circuit breaker; BreakerCooldown later a single half-open probe may
	// close it again. Defaults 3 and 30s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Metrics receives the daemon's operational metrics and is served on
	// GET /metrics; nil creates a private registry. Use one registry per
	// server — two servers sharing one would fold their counts together.
	Metrics *obs.Registry
	// Clock supplies time to the circuit breaker, request timing, and
	// slow-request logging. nil means the real clock; tests inject an
	// obs.FakeClock to drive breaker transitions deterministically,
	// without sleeps.
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
		MaxBatchVotes:           65536,
		MaxBodyBytes:            32 << 20,
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
	if c.MaxBatchVotes == 0 {
		c.MaxBatchVotes = d.MaxBatchVotes
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
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
	case c.MaxBatchVotes < 1 || c.MaxConcurrentRanks < 1 || c.MaxConcurrentIngests < 1:
		return c, fmt.Errorf("serve: batch and queue bounds must be >= 1")
	case c.MaxBodyBytes < 1:
		return c, fmt.Errorf("serve: MaxBodyBytes must be >= 1, got %d", c.MaxBodyBytes)
	case c.BreakerThreshold < 1 || c.BreakerCooldown < 0:
		return c, fmt.Errorf("serve: breaker threshold must be >= 1 and cooldown non-negative")
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

	// writeMu is held by commit from its journal append through its
	// apply, and by cut: under it state.batches always equals the
	// journal's NextSeq, which lets a snapshot equate its coverage
	// sequence with the state it captured.
	writeMu sync.Mutex
	// snapMu serializes snapshot writers (policy trigger vs POST
	// /snapshot); sinceSnap counts committed batches since the last
	// snapshot.
	snapMu    sync.Mutex
	sinceSnap atomic.Int64

	// mu guards state, the vote-state machine (state.go), and the
	// lastSnap* description of the newest snapshot on disk.
	mu           sync.RWMutex
	state        *voteState
	lastSnapSeq  uint64
	lastSnapGen  uint64
	lastSnapPath string
	// malformed counts votes dropped at ingest validation since start;
	// they are never journaled, so it is not part of the vote state.
	malformed atomic.Int64

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

	// closeMu is held shared by every in-flight commit and rank and
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
		state:     newVoteState(cfg.N, cfg.M, cfg.IdempotencyWindow),
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
	// dropped counts the tried candidate's replayed votes outside the
	// configured universe (a journal reopened under a smaller N or M).
	var dropped int
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
		dropped += rec.dropped
		// Nothing shares the state or has armed the build-ahead before
		// NewContext returns: replay needs no lock and fires nothing.
		s.state.apply(rec)
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
		err = s.state.seed(st)
		seedDur += s.clock.Since(seedStart)
		dropped = 0
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
				DroppedVotes:     dropped,
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

// replayAck returns the remembered ack for key, marked Replayed, if the
// idempotency window still holds it.
func (s *Server) replayAck(key string) (IngestResult, bool) {
	if key == "" {
		return IngestResult{}, false
	}
	s.mu.RLock()
	res, ok := s.state.acks[key]
	s.mu.RUnlock()
	if ok {
		s.met.idempotentReplays.Inc()
		res.Replayed = true
	}
	return res, ok
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
	// Fast path for a retried key: answer from the ack window before
	// spending any validation or journal work.
	if cached, ok := s.replayAck(key); ok {
		return cached, nil
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
	s.malformed.Add(int64(res.Malformed))
	s.met.ingestMalformed.Add(uint64(res.Malformed))
	if len(valid) == 0 && key == "" {
		// An unkeyed batch without a valid vote changes nothing and leaves
		// no ack to remember, so it journals nothing and its ack is a read
		// of the state. A keyed one commits as a zero-vote record, so its
		// ack survives restarts and reaches followers like any other.
		s.mu.RLock()
		res.Seq, res.TotalVotes = s.state.batches, len(s.state.votes)
		s.mu.RUnlock()
		return res, nil
	}
	// Last chance to honor cancellation: past this point the batch
	// commits.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	// The record carries the key and malformed count, so replay after a
	// crash rebuilds the identical ack.
	rec := batchRecord{key: key, malformed: res.Malformed, votes: valid}
	return s.commit(key, encodeBatch(key, res.Malformed, valid), rec, nil)
}

// commit is the daemon's one journal writer. Under writeMu it appends
// payload, the encoding of rec, to the journal (when there is one) and
// only then applies rec, so journal order is apply order and no batch is
// applied, let alone acknowledged, before it is durable. A non-nil check
// runs first under writeMu and vetoes the commit with its error. A
// non-empty key is looked up in the ack window next: a concurrent retry
// of the same key may have committed since the caller's own lookup, and
// under writeMu a miss proves this call is the one that journals the
// batch. A hit journals nothing and returns the original ack, Replayed.
func (s *Server) commit(key string, payload []byte, rec batchRecord, check func() error) (IngestResult, error) {
	if s.closing.Load() {
		return IngestResult{}, errShuttingDown
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing.Load() {
		return IngestResult{}, errShuttingDown
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if check != nil {
		if err := check(); err != nil {
			return IngestResult{}, err
		}
	}
	if cached, ok := s.replayAck(key); ok {
		return cached, nil
	}
	if s.jnl != nil {
		//lint:ignore lockcheck durable-before-ack: the append (and its fsync) must finish under writeMu before apply so journal order equals apply order, and under closeMu so shutdown cannot close the journal mid-batch
		if _, err := s.jnl.Append(payload); err != nil {
			return IngestResult{}, fmt.Errorf("serve: journaling batch: %w", err)
		}
	}
	s.mu.Lock()
	res := s.state.apply(rec)
	s.mu.Unlock()
	if res.Accepted > 0 {
		s.ahead.fire()
	}
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

	st := s.cut()
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

// cut captures the consistent snapshot.State that Snapshot persists and
// StateSnapshot serves. Under writeMu no commit is between its append and
// its apply, so state.batches equals the journal's NextSeq: the cut's Seq
// is exactly the journal coverage of the votes it holds. (A failed append
// poisons the journal, possibly one sequence past the state; nothing is
// appended after it.)
func (s *Server) cut() snapshot.State {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.cut()
}

// snapshot returns the current vote slice and its generation. The slice is
// append-only, so sharing the backing array with concurrent appends is
// safe: a later append either fits capacity (beyond our length) or
// reallocates.
func (s *Server) snapshot() ([]crowd.Vote, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.votes[:len(s.state.votes):len(s.state.votes)], s.state.gen
}

// VoteCount returns the deduplicated vote count.
func (s *Server) VoteCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.state.votes)
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
		Votes:             len(s.state.votes),
		Batches:           s.state.batches,
		Duplicates:        s.state.dupVotes,
		Malformed:         int(s.malformed.Load()),
		AckWindow:         len(s.state.acks),
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
	// DroppedVotes counts replayed votes outside the configured universe
	// (a journal reopened under a smaller N or M). They are dropped, not
	// applied; a nonzero count means acknowledged votes were left out.
	DroppedVotes int
	// CorruptSnapshots lists "file: reason" for every snapshot refused
	// during recovery — never silently, always here and in the log.
	CorruptSnapshots []string
	// SnapshotLoad, Seed and Replay time the recovery phases, each summed
	// over every candidate tried: snapshot.Load, voteState.seed, and
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
	if r.DroppedVotes > 0 {
		fmt.Fprintf(&b, "; dropped %d vote(s) outside the configured universe", r.DroppedVotes)
	}
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
func (s *Server) StateSnapshot() snapshot.State { return s.cut() }

// ApplyReplicated journals and applies one batch record received from a
// replication stream. seq is the sequence the record carries on the
// leader; the follower's journal must be exactly there — a mismatch means
// the stream and the local journal diverged (matching journal.ErrSeqGap)
// and the follower must resync rather than guess. The payload is appended
// verbatim, keeping a follower's journal byte-for-byte the leader's
// record stream, then applied through the same commit as live ingest —
// including rebuilding keyed acks, so the idempotency window follows the
// leader and a client retry after failover replays instead of re-applying.
func (s *Server) ApplyReplicated(seq uint64, payload []byte) error {
	rec, err := decodeBatchRecord(payload, s.cfg.N, s.cfg.M)
	if err != nil {
		// A record that does not decode is a foreign or incompatible
		// stream — refuse it rather than guess, same as recovery.
		return fmt.Errorf("serve: undecodable replicated batch: %w", err)
	}
	// The leader already decided this record, so it applies verbatim with
	// no window lookup; the journal position is the follower's guard.
	_, err = s.commit("", payload, rec, func() error {
		if s.jnl == nil {
			return nil
		}
		if got := s.jnl.NextSeq(); got != seq {
			return fmt.Errorf("serve: replicated record carries seq %d but the local journal is at %d: %w",
				seq, got, journal.ErrSeqGap)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Followers run the same snapshot+compaction policy as the leader,
	// after commit has released its locks.
	s.maybeSnapshot()
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
