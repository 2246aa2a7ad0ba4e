package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/snapshot"
)

// setSegmentBytes shrinks the journal segments of the servers tb
// constructs to n bytes and restores the threshold when tb ends.
func setSegmentBytes(tb testing.TB, n int64) {
	tb.Helper()
	old := journalSegmentBytes
	journalSegmentBytes = n
	tb.Cleanup(func() { journalSegmentBytes = old })
}

// snapCfg is a daemon tuned so snapshots and rotation trigger within a
// handful of single-vote batches.
func snapCfg(t *testing.T, dir string) Config {
	t.Helper()
	cfg := DefaultConfig(8, 4)
	cfg.Seed = 21
	cfg.JournalPath = dir
	setSegmentBytes(t, 64) // a record or two per segment
	cfg.SnapshotEveryBatches = -1
	cfg.SnapshotMaxJournalBytes = -1
	return cfg
}

func ingestOne(t *testing.T, s *Server, seq int) {
	t.Helper()
	v := chaosVote(seq)
	v.Worker, v.I, v.J = v.Worker%4, v.I%8, v.J%8
	if v.I == v.J {
		v.J = (v.I + 1) % 8
	}
	if _, err := s.Ingest([]crowd.Vote{v}); err != nil {
		t.Fatalf("ingest %d: %v", seq, err)
	}
}

func TestSnapshotCompactsAndRestartReplaysOnlySuffix(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 6; i++ {
		ingestOne(t, s, i)
	}
	segsBefore := s.jnl.Segments()
	res, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 6 {
		t.Fatalf("snapshot covers seq %d, want 6", res.Seq)
	}
	if res.SegmentsDeleted == 0 || s.jnl.Segments() >= segsBefore {
		t.Fatalf("compaction deleted %d of %d segments, %d left",
			res.SegmentsDeleted, segsBefore, s.jnl.Segments())
	}
	for i := 6; i < 9; i++ {
		ingestOne(t, s, i)
	}
	wantVotes := s.VoteCount()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the snapshot seeds votes 0-5 and only the 3 post-snapshot
	// records replay.
	s2 := newTestServer(t, cfg)
	rec := s2.Recovered()
	if rec.SnapshotPath == "" || rec.SnapshotSeq != 6 || rec.SnapshotVotes == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", rec)
	}
	if rec.Records != 3 {
		t.Fatalf("replayed %d records after snapshot at seq 6, want 3 (%s)", rec.Records, rec)
	}
	if rec.FirstSeq != 6 {
		t.Fatalf("surviving segments start at seq %d, want 6", rec.FirstSeq)
	}
	if got := s2.VoteCount(); got != wantVotes {
		t.Fatalf("recovered %d votes, want %d", got, wantVotes)
	}
	// The daemon keeps working across the recovery boundary.
	ingestOne(t, s2, 9)
	if res, err := s2.Rank(); err != nil {
		t.Fatal(err)
	} else {
		assertPermutation(t, 8, res.Ranking)
	}
}

func TestSnapshotPolicyBatchTrigger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	cfg.SnapshotEveryBatches = 4
	s := newTestServer(t, cfg)
	for i := 0; i < 4; i++ {
		ingestOne(t, s, i)
	}
	st := s.StatsSnapshot()
	if st.LastSnapshotSeq != 4 {
		t.Fatalf("policy should have snapshotted at the 4th acked batch, last snapshot seq %d", st.LastSnapshotSeq)
	}
	entries, err := snapshot.List(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no snapshot on disk after policy trigger: %v %v", entries, err)
	}
}

func TestSnapshotPolicySizeTrigger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	cfg.SnapshotMaxJournalBytes = 1 // every acked batch exceeds it
	s := newTestServer(t, cfg)
	ingestOne(t, s, 0)
	if st := s.StatsSnapshot(); st.LastSnapshotSeq != 1 {
		t.Fatalf("size trigger did not fire: %+v", st)
	}
}

// TestRecoveryAfterCrashBeforeCompaction plants the exact artifact a
// crash between snapshot-write and compaction-delete leaves behind: a
// complete snapshot with every covered segment still on disk. Recovery
// must seed from the snapshot and skip (not re-apply) the covered
// records.
func TestRecoveryAfterCrashBeforeCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		ingestOne(t, s, i)
	}
	if _, err := snapshot.WriteImage(dir, s.cut()); err != nil {
		t.Fatal(err)
	}
	wantVotes := s.VoteCount()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	rec := s2.Recovered()
	if rec.SnapshotSeq != 5 || rec.Records != 0 || rec.SkippedRecords != 5 {
		t.Fatalf("want snapshot seed plus 5 skipped covered records, got: %s", rec)
	}
	if got := s2.VoteCount(); got != wantVotes {
		t.Fatalf("recovered %d votes, want %d", got, wantVotes)
	}
}

func TestCorruptSnapshotFallsBackToFullReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		ingestOne(t, s, i)
	}
	wantVotes := s.VoteCount()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A snapshot written but never verified (as a crash mid-cycle would
	// leave) that is also garbage: recovery must refuse it loudly and
	// fall back to replaying the intact segments.
	bogus := filepath.Join(dir, snapshot.Prefix+"00000000000000000003")
	if err := os.WriteFile(bogus, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, cfg)
	rec := s2.Recovered()
	if len(rec.CorruptSnapshots) != 1 || !strings.Contains(rec.CorruptSnapshots[0], filepath.Base(bogus)) {
		t.Fatalf("corrupt snapshot not reported: %+v", rec)
	}
	if rec.SnapshotPath != "" || rec.Records != 5 {
		t.Fatalf("expected full replay of 5 records, got %+v", rec)
	}
	if got := s2.VoteCount(); got != wantVotes {
		t.Fatalf("recovered %d votes, want %d", got, wantVotes)
	}
}

func TestCorruptSnapshotAfterCompactionRefusesToStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 6; i++ {
		ingestOne(t, s, i)
	}
	res, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsDeleted == 0 {
		t.Fatal("test needs compaction to have happened")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage every snapshot on disk: the compacted records now exist
	// nowhere, so starting up would mean serving state with a hole in it.
	entries, err := snapshot.List(dir)
	if err != nil || len(entries) == 0 {
		t.Fatal("expected snapshots on disk")
	}
	for _, e := range entries {
		data, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x01
		if err := os.WriteFile(e.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(cfg); !errors.Is(err, journal.ErrSeqGap) {
		t.Fatalf("startup over a coverage hole must refuse with ErrSeqGap, got %v", err)
	}
}

func TestSnapshotAdminEndpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s, ts := httpServer(t, cfg)
	for i := 0; i < 3; i++ {
		ingestOne(t, s, i)
	}
	resp, err := http.Post(ts.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot status %d", resp.StatusCode)
	}
	var res SnapshotResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Seq != 3 || res.Votes != s.VoteCount() {
		t.Fatalf("unexpected snapshot result %+v", res)
	}
}

func TestSnapshotInMemoryRefused(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 3
	_, ts := httpServer(t, cfg)
	resp, err := http.Post(ts.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-memory snapshot should 409, got %d", resp.StatusCode)
	}
}

func TestFsyncFailurePoisonsDaemon(t *testing.T) {
	var fail atomic.Bool
	testJournalFaults = &journal.Faults{Sync: func() error {
		if fail.Load() {
			return errors.New("injected EIO")
		}
		return nil
	}}
	defer func() { testJournalFaults = nil }()

	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s, ts := httpServer(t, cfg)
	ingestOne(t, s, 0)

	readyz := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		return resp.StatusCode
	}
	if readyz() != http.StatusOK {
		t.Fatal("daemon not ready before the fault")
	}

	fail.Store(true)
	resp := postVotes(t, ts.URL, []crowd.Vote{{Worker: 1, I: 2, J: 3, PrefersI: true}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest over a failed fsync must 503, got %d", resp.StatusCode)
	}
	// fsyncgate: the fault clearing does not matter — the journal stays
	// poisoned because the dirty pages may already be gone.
	fail.Store(false)
	resp = postVotes(t, ts.URL, []crowd.Vote{{Worker: 1, I: 3, J: 4, PrefersI: true}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poisoned journal acked a batch (status %d)", resp.StatusCode)
	}
	if readyz() != http.StatusServiceUnavailable {
		t.Fatal("/readyz must go 503 once the journal is poisoned")
	}
	st := s.StatsSnapshot()
	if !strings.Contains(st.LastSyncError, "injected EIO") {
		t.Fatalf("last_sync_error should carry the fault, got %q", st.LastSyncError)
	}
	// Liveness is unaffected: /healthz still answers so operators can see
	// the poisoned state, and reads still serve.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz should stay 200, got %d", hresp.StatusCode)
	}
}

func TestHealthzReportsDiskUsage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s, ts := httpServer(t, cfg)
	for i := 0; i < 4; i++ {
		ingestOne(t, s, i)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JournalBytes <= 0 || st.JournalSegments < 1 {
		t.Fatalf("journal accounting missing: %+v", st)
	}
	if st.SnapshotBytes <= 0 || st.LastSnapshotSeq != 4 {
		t.Fatalf("snapshot accounting missing: %+v", st)
	}
	if st.LastSyncError != "" {
		t.Fatalf("healthy daemon reports sync error %q", st.LastSyncError)
	}
}

// TestRecoveryPhasesReported checks that startup recovery splits its time
// into snapshot load, dedup seeding and journal replay, and reports the
// split in RecoveryStats, its log line and /healthz.
func TestRecoveryPhasesReported(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 4; i++ {
		ingestOne(t, s, i)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestOne(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts := httpServer(t, cfg)
	rec := s2.Recovered()
	if rec.SnapshotPath == "" || rec.SnapshotLoad <= 0 || rec.Seed < 0 || rec.Replay <= 0 {
		t.Fatalf("recovery phases not timed: %+v", rec)
	}
	if !strings.Contains(rec.String(), "phases: snapshot ") {
		t.Fatalf("startup log line lacks the phase split: %s", rec)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var body struct {
		Phases map[string]float64 `json:"recovery_phases_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"snapshot": ms(rec.SnapshotLoad), "seed": ms(rec.Seed), "replay": ms(rec.Replay)}
	if len(body.Phases) != len(want) {
		t.Fatalf("recovery_phases_ms = %v, want keys of %v", body.Phases, want)
	}
	for k, v := range want {
		if got, ok := body.Phases[k]; !ok || got != v {
			t.Fatalf("recovery_phases_ms[%q] = %v, want %v (%v)", k, got, v, body.Phases)
		}
	}
}

// TestRetryAfterParseable pins the 429 contract: both bounded queues must
// reject with a Retry-After header that strconv can parse, because naive
// clients do exactly that.
func TestRetryAfterParseable(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 9
	s, ts := httpServer(t, cfg)

	// Fill both queues directly so the next request of each kind hits a
	// full queue deterministically.
	defer take(s.rankSem, cap(s.rankSem))()
	defer take(s.ingestSem, cap(s.ingestSem))()

	check := func(resp *http.Response) {
		t.Helper()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		raw := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(raw)
		if err != nil || secs < 0 {
			t.Fatalf("Retry-After %q is not a parseable non-negative integer: %v", raw, err)
		}
	}
	check(postVotes(t, ts.URL, []crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}}))
	resp, err := http.Get(ts.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	check(resp)
}
