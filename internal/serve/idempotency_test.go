package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
)

// --- exactly-once batch acks ---

func TestIngestKeyedReplaySameProcess(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 41
	s := newTestServer(t, cfg)

	batch := []crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 1, I: 2, J: 3, PrefersI: false},
		{Worker: 9, I: 0, J: 1, PrefersI: true}, // malformed: worker 9 of 2
	}
	first, err := s.IngestKeyed(context.Background(), "key-1", batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted != 2 || first.Malformed != 1 || first.Replayed {
		t.Fatalf("unexpected first ack %+v", first)
	}
	// A network retry replays the identical ack without re-applying.
	second, err := s.IngestKeyed(context.Background(), "key-1", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Replayed {
		t.Fatal("retried key must be marked Replayed")
	}
	second.Replayed = false
	if second != first {
		t.Fatalf("replayed ack %+v differs from original %+v", second, first)
	}
	st := s.StatsSnapshot()
	if st.Batches != 1 || st.Votes != 2 {
		t.Fatalf("retry must not re-apply: %+v", st)
	}
	if got := s.met.idempotentReplays.Value(); got != 1 {
		t.Fatalf("idempotent replay counter = %d, want 1", got)
	}
	if st.AckWindow != 1 {
		t.Fatalf("ack window should hold one key, got %d", st.AckWindow)
	}
	// A different key with the same votes re-applies; vote-level dedup
	// reports them all duplicates.
	third, err := s.IngestKeyed(context.Background(), "key-2", batch)
	if err != nil {
		t.Fatal(err)
	}
	if third.Replayed || third.Accepted != 0 || third.Duplicates != 2 {
		t.Fatalf("distinct key should re-apply through dedup, got %+v", third)
	}
}

// TestIngestKeyedReplayAcrossRestartJournal is the acceptance criterion:
// a retried batch key answers with its original ack even after the daemon
// restarted and rebuilt state by journal replay.
func TestIngestKeyedReplayAcrossRestartJournal(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 43
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")
	// No snapshots: restart must rebuild the ack window from the journal.
	cfg.SnapshotEveryBatches = -1
	cfg.SnapshotMaxJournalBytes = -1

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := []crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 0, I: 0, J: 1, PrefersI: true}, // in-batch duplicate
		{Worker: 5, I: 0, J: 1, PrefersI: true}, // malformed
	}
	first, err := s.IngestKeyed(context.Background(), "restart-key", batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted != 1 || first.Duplicates != 1 || first.Malformed != 1 {
		t.Fatalf("unexpected first ack %+v", first)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := newTestServer(t, cfg)
	if r.Recovered().Records != 1 {
		t.Fatalf("want 1 replayed record, got %d", r.Recovered().Records)
	}
	again, err := r.IngestKeyed(context.Background(), "restart-key", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Replayed {
		t.Fatal("retried key after restart must be marked Replayed")
	}
	again.Replayed = false
	if again != first {
		t.Fatalf("post-restart ack %+v differs from original %+v", again, first)
	}
	if st := r.StatsSnapshot(); st.Batches != 1 || st.Votes != 1 {
		t.Fatalf("retry after restart must not re-apply: %+v", st)
	}
}

// TestIngestKeyedReplayAcrossRestartSnapshot covers the other recovery
// path: the ack window rides in the snapshot, and a restart that replays
// no journal suffix still answers retried keys exactly once.
func TestIngestKeyedReplayAcrossRestartSnapshot(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 47
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := []crowd.Vote{{Worker: 1, I: 1, J: 3, PrefersI: false}}
	first, err := s.IngestKeyed(context.Background(), "snap-key", batch)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot and compact: the keyed record's segment is deleted, so the
	// window can only come back via the snapshot.
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := newTestServer(t, cfg)
	if r.Recovered().Records != 0 {
		t.Fatalf("snapshot should cover the journal, yet %d records replayed", r.Recovered().Records)
	}
	again, err := r.IngestKeyed(context.Background(), "snap-key", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Replayed {
		t.Fatal("retried key after snapshot recovery must be marked Replayed")
	}
	again.Replayed = false
	if again != first {
		t.Fatalf("post-snapshot ack %+v differs from original %+v", again, first)
	}
	if st := r.StatsSnapshot(); st.Batches != 1 || st.Votes != 1 {
		t.Fatalf("retry after snapshot recovery must not re-apply: %+v", st)
	}
}

func TestIngestKeyedWindowEviction(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 53
	cfg.IdempotencyWindow = 1
	s := newTestServer(t, cfg)

	batch := []crowd.Vote{{Worker: 0, I: 0, J: 2, PrefersI: true}}
	if _, err := s.IngestKeyed(context.Background(), "old", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestKeyed(context.Background(), "new", []crowd.Vote{{Worker: 1, I: 1, J: 2, PrefersI: false}}); err != nil {
		t.Fatal(err)
	}
	// "old" fell out of the one-slot window: the retry re-applies and
	// falls back to vote-level dedup.
	res, err := s.IngestKeyed(context.Background(), "old", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed {
		t.Fatal("evicted key must not replay")
	}
	if res.Accepted != 0 || res.Duplicates != 1 {
		t.Fatalf("evicted key should hit vote dedup, got %+v", res)
	}
	if st := s.StatsSnapshot(); st.AckWindow != 1 {
		t.Fatalf("window must stay at its cap, got %d", st.AckWindow)
	}
}

func TestIngestKeyedWindowDisabled(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 59
	cfg.IdempotencyWindow = -1
	s := newTestServer(t, cfg)

	batch := []crowd.Vote{{Worker: 0, I: 0, J: 3, PrefersI: true}}
	if _, err := s.IngestKeyed(context.Background(), "k", batch); err != nil {
		t.Fatal(err)
	}
	res, err := s.IngestKeyed(context.Background(), "k", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed || res.Duplicates != 1 {
		t.Fatalf("disabled window should re-apply through dedup, got %+v", res)
	}
}

// TestIngestKeyedAllMalformedBatch pins that a keyed batch whose votes are
// all malformed is acknowledged like any other: it commits as a zero-vote
// record that moves the batch count but not the generation, takes a window
// slot, and its retry replays the original ack in process, after a
// journal-only restart, after a snapshot restart, and on a follower. With
// a two-slot window the batch also evicts the key before it identically on
// every path, so a retry of that key re-applies through vote dedup.
func TestIngestKeyedAllMalformedBatch(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 61
	cfg.IdempotencyWindow = 2
	cfg.SnapshotEveryBatches = -1
	cfg.SnapshotMaxJournalBytes = -1
	cfgOf := func(name string) Config {
		c := cfg
		c.JournalPath = filepath.Join(dir, name)
		return c
	}
	a := []crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}}
	junk := []crowd.Vote{{Worker: 99, I: 0, J: 1, PrefersI: true}}
	b := []crowd.Vote{{Worker: 1, I: 2, J: 3, PrefersI: false}}
	ingest := func(s *Server) IngestResult {
		t.Helper()
		var junkAck IngestResult
		for _, batch := range []struct {
			key   string
			votes []crowd.Vote
		}{{"a", a}, {"junk", junk}, {"b", b}} {
			res, err := s.IngestKeyed(context.Background(), batch.key, batch.votes)
			if err != nil {
				t.Fatal(err)
			}
			if batch.key == "junk" {
				junkAck = res
			}
		}
		return junkAck
	}

	live := newTestServer(t, cfgOf("live"))
	first := ingest(live)
	if want := (IngestResult{Malformed: 1, Seq: 2, TotalVotes: 1}); first != want {
		t.Fatalf("all-malformed ack %+v, want %+v", first, want)
	}
	if st := live.cut(); st.Seq != 3 || st.Gen != 2 || len(st.Votes) != 2 {
		t.Fatalf("the zero-vote record must count as a batch but not move the generation: %+v", st)
	}
	follower := newTestServer(t, cfgOf("follower"))
	replicate(t, live, follower)
	replayed := newTestServer(t, cfgOf("replayed"))
	ingest(replayed)
	replayed = restart(t, replayed, cfgOf("replayed"))
	if replayed.Recovered().Records != 3 {
		t.Fatalf("want 3 replayed records, got %s", replayed.Recovered())
	}
	snapped := newTestServer(t, cfgOf("snapped"))
	ingest(snapped)
	if _, err := snapped.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snapped = restart(t, snapped, cfgOf("snapped"))
	if snapped.Recovered().SnapshotPath == "" {
		t.Fatalf("restart did not load the snapshot: %s", snapped.Recovered())
	}

	for _, path := range []struct {
		name string
		s    *Server
	}{{"in-process", live}, {"follower", follower}, {"journal restart", replayed}, {"snapshot restart", snapped}} {
		res, err := path.s.IngestKeyed(context.Background(), "junk", junk)
		if err != nil {
			t.Fatal(err)
		}
		want := first
		want.Replayed = true
		if res != want {
			t.Fatalf("%s: retry of the all-malformed batch answered %+v, want %+v", path.name, res, want)
		}
		// "a" fell out of the window behind junk and b.
		res, err = path.s.IngestKeyed(context.Background(), "a", a)
		if err != nil {
			t.Fatal(err)
		}
		if want := (IngestResult{Duplicates: 1, Seq: 4, TotalVotes: 2}); res != want {
			t.Fatalf("%s: retry of the evicted key answered %+v, want %+v", path.name, res, want)
		}
	}
}

func TestIngestKeyedRejectsOversizedKey(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 67
	s := newTestServer(t, cfg)
	_, err := s.IngestKeyed(context.Background(), strings.Repeat("k", maxKeyLen+1), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds maximum") {
		t.Fatalf("oversized key should be rejected, got %v", err)
	}
}

// --- v2 batch record codec ---

func TestBatchRecordCodecKeyedRoundTrip(t *testing.T) {
	votes := []crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 2, I: 3, J: 1, PrefersI: false},
	}
	data := encodeBatch("abc123", 4, votes)
	rec, err := decodeBatchRecord(data, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.key != "abc123" || rec.malformed != 4 || len(rec.votes) != 2 || rec.dropped != 0 {
		t.Fatalf("round trip drifted: %+v", rec)
	}
	for i := range votes {
		if rec.votes[i] != votes[i] {
			t.Fatalf("vote %d = %+v, want %+v", i, rec.votes[i], votes[i])
		}
	}
}

func TestBatchRecordCodecReadsV1(t *testing.T) {
	votes := []crowd.Vote{{Worker: 1, I: 4, J: 5, PrefersI: true}}
	rec, err := decodeBatchRecord(appendVotes(nil, votes), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.key != "" || rec.malformed != 0 || len(rec.votes) != 1 || rec.votes[0] != votes[0] {
		t.Fatalf("v1 record decoded wrong: %+v", rec)
	}
}

// TestBatchRecordCodecUnkeyedIsV2 pins the single writer: an unkeyed
// ingest journals a v2 record with an empty key, not a v1 record.
func TestBatchRecordCodecUnkeyedIsV2(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(6, 3)
	cfg.Seed = 3
	cfg.JournalPath = dir
	s := newTestServer(t, cfg)
	votes := []crowd.Vote{{Worker: 1, I: 4, J: 5, PrefersI: true}, {Worker: 3, I: 0, J: 1}}
	if _, err := s.Ingest(votes); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	j, _, err := journal.Open(dir, journal.Options{}, func(p []byte) error {
		records = append(records, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 1, 1, 1, 4, 5, 1} // v2 marker, empty key, 1 malformed, 1 vote
	if len(records) != 1 || !bytes.Equal(records[0], want) {
		t.Fatalf("unkeyed ingest journaled %x, want the v2 record %x", records, want)
	}
	rec, err := decodeBatchRecord(records[0], 6, 3)
	if err != nil || rec.key != "" || rec.malformed != 1 || len(rec.votes) != 1 || rec.votes[0] != votes[0] {
		t.Fatalf("decoded %+v (err %v)", rec, err)
	}
}

func TestBatchRecordCodecRejectsDamage(t *testing.T) {
	good := encodeBatch("key", 0, []crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}})
	cases := map[string][]byte{
		"oversized key":  encodeBatch(strings.Repeat("k", maxKeyLen+1), 0, nil),
		"truncated key":  good[:3],
		"empty":          nil,
		"truncated tail": good[:len(good)-2],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeBatchRecord(data, 6, 3); err == nil {
				t.Fatal("damaged record decoded without error")
			}
		})
	}
}

// --- HTTP robustness ---

func TestHTTPIdempotencyKeyReplay(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 71
	s, ts := httpServer(t, cfg)

	body, err := json.Marshal(ingestRequest{Votes: []voteJSON{{Worker: 0, I: 0, J: 1, PrefersI: true}}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() IngestResult {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/votes", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "http-key-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var ir IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}
	first := post()
	if first.Accepted != 1 || first.Replayed {
		t.Fatalf("unexpected first ack %+v", first)
	}
	second := post()
	if !second.Replayed {
		t.Fatal("retried POST with the same Idempotency-Key must report replayed")
	}
	if st := s.StatsSnapshot(); st.Batches != 1 {
		t.Fatalf("retried POST must not re-journal: %+v", st)
	}

	// A key beyond the on-disk bound is a client bug: 400, not truncation.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/votes", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", strings.Repeat("k", maxKeyLen+1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized key should 400, got %d", resp.StatusCode)
	}
}

// TestHTTPBodyLimit pins the MaxBytesReader path: an over-limit body is
// answered 413 with the standard error shape, and nothing reaches the
// journal or the vote state.
func TestHTTPBodyLimit(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 73
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")
	cfg.MaxBodyBytes = 512
	s, ts := httpServer(t, cfg)

	before := s.StatsSnapshot()
	// Valid JSON, deliberately bloated past the limit with repeated votes.
	var req ingestRequest
	for i := 0; i < 200; i++ {
		req.Votes = append(req.Votes, voteJSON{Worker: 0, I: 0, J: 1, PrefersI: true})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body)) <= cfg.MaxBodyBytes {
		t.Fatalf("test body of %d bytes does not exceed the %d limit", len(body), cfg.MaxBodyBytes)
	}
	resp, err := http.Post(ts.URL+"/votes", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body should 413, got %d", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("413 body is not the standard error shape: %v", err)
	}
	if !strings.Contains(er.Error, "512") {
		t.Fatalf("413 error should name the limit, got %q", er.Error)
	}
	after := s.StatsSnapshot()
	if after.Batches != before.Batches || after.Votes != before.Votes || after.JournalBytes != before.JournalBytes {
		t.Fatalf("rejected body leaked into state: before %+v after %+v", before, after)
	}
}

// TestHTTPPanicRecovery drives a panicking handler through the
// instrument middleware: the request is answered 500 with the standard
// error shape, the panic is counted, and the daemon keeps serving.
func TestHTTPPanicRecovery(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 79
	s := newTestServer(t, cfg)

	ts := httptest.NewServer(s.instrument("votes", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler should answer 500, got %d", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("500 body is not the standard error shape: %v %+v", err, er)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The sanctioned abort must pass through uncounted: net/http tears the
	// connection down instead of answering.
	abort := httptest.NewServer(s.instrument("votes", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(abort.Close)
	if resp, err := http.Get(abort.URL); err == nil {
		_ = resp.Body.Close()
		t.Fatal("ErrAbortHandler should abort the connection, not answer")
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("ErrAbortHandler must not count as a panic, counter = %d", got)
	}
}

// TestHTTPPanicAfterWriteNotDoubled: when the handler already wrote a
// response, the middleware must not stack a 500 on top.
func TestHTTPPanicAfterWrite(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 83
	s := newTestServer(t, cfg)

	ts := httptest.NewServer(s.instrument("votes", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late boom")
	}))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("already-written status must stand, got %d", resp.StatusCode)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("late panic should still count, got %d", got)
	}
}

// TestRetryAfterDerivation pins what the Retry-After on a 429 is derived
// from: nothing but the full queue. An open breaker with a long cooldown
// adds nothing to a rank 429, and the value stays the parseable "5".
func TestRetryAfterDerivation(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 89
	cfg.MaxConcurrentRanks = 1
	cfg.BreakerCooldown = 10 * time.Second
	s, ts := httpServer(t, cfg)

	for i := 0; i < cfg.BreakerThreshold; i++ {
		s.breaker.failure()
	}
	if s.breaker.state() != "open" {
		t.Fatalf("breaker should be open, is %s", s.breaker.state())
	}
	s.rankSem <- struct{}{}
	defer func() { <-s.rankSem }()

	resp, err := http.Get(ts.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full rank queue should 429, got %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("open breaker must not stretch Retry-After past 5, got %q", got)
	}
}

// TestReplayMixedV1AndV2Records pins the on-disk compatibility contract:
// a journal holding unkeyed v1 batch records followed by keyed v2 records
// (the shape left behind by an upgrade mid-stream) replays fully, and the
// rebuilt ack window holds only the keyed suffix.
func TestReplayMixedV1AndV2Records(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{}, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	v1Batches := [][]crowd.Vote{
		{{Worker: 0, I: 0, J: 1, PrefersI: true}},
		{{Worker: 1, I: 2, J: 3, PrefersI: false}, {Worker: 0, I: 1, J: 2, PrefersI: true}},
	}
	for _, b := range v1Batches {
		if _, err := j.Append(appendVotes(nil, b)); err != nil {
			t.Fatal(err)
		}
	}
	v2Keys := []string{"upgrade-a", "upgrade-b"}
	v2Batches := [][]crowd.Vote{
		{{Worker: 1, I: 3, J: 0, PrefersI: true}},
		{{Worker: 0, I: 2, J: 0, PrefersI: false}},
	}
	for i, b := range v2Batches {
		if _, err := j.Append(encodeBatch(v2Keys[i], 1, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(4, 2)
	cfg.Seed = 77
	cfg.JournalPath = dir
	s := newTestServer(t, cfg)

	st := s.StatsSnapshot()
	if st.Batches != 4 || st.Votes != 5 {
		t.Fatalf("replay applied %d batches / %d votes, want 4 / 5: %+v", st.Batches, st.Votes, st)
	}
	if st.AckWindow != 2 {
		t.Fatalf("ack window holds %d keys, want only the 2 keyed v2 records", st.AckWindow)
	}

	// The keyed suffix replays exactly-once, preserving its recorded
	// malformed count; the unkeyed prefix left nothing to replay against.
	res, err := s.IngestKeyed(context.Background(), v2Keys[0], v2Batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed || res.Malformed != 1 {
		t.Fatalf("keyed v2 record did not replay from the rebuilt window: %+v", res)
	}
	fresh, err := s.IngestKeyed(context.Background(), "post-upgrade", []crowd.Vote{{Worker: 1, I: 1, J: 3, PrefersI: true}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Replayed || fresh.Accepted != 1 {
		t.Fatalf("fresh key after mixed replay misbehaved: %+v", fresh)
	}
}
