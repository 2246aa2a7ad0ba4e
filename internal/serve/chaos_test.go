package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/reexec"
)

const (
	chaosDirEnv  = "CROWDRANK_CHAOS_DIR"
	chaosSnapEnv = "CROWDRANK_CHAOS_SNAP_EVERY"
	chaosN       = 40
	chaosM       = 20
)

// activeSegment returns the journal directory's highest-numbered (live)
// segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "journal.") && name > last {
			last = name
		}
	}
	if last == "" {
		t.Fatalf("no journal segments in %s", dir)
	}
	return filepath.Join(dir, last)
}

// chaosVote derives the seq-th unique submission, so each acknowledged
// batch is distinguishable in the recovered state.
func chaosVote(seq int) crowd.Vote {
	pairs := chaosN * (chaosN - 1) / 2
	p := seq % pairs
	w := (seq / pairs) % chaosM
	// Unrank p into the (i, j) pair with i < j.
	i, row := 0, chaosN-1
	for p >= row {
		p -= row
		i++
		row--
	}
	return crowd.Vote{Worker: w, I: i, J: i + 1 + p, PrefersI: seq%3 != 0}
}

// TestChaosChildDaemon is not a test of its own: TestChaosKillMidIngest
// re-execs the test binary with CROWDRANK_CHAOS_DIR set to turn this into
// the victim daemon process that gets SIGKILLed mid-ingest.
func TestChaosChildDaemon(t *testing.T) {
	dir := os.Getenv(chaosDirEnv)
	if dir == "" {
		t.Skip("not a chaos child")
	}
	reexec.ExitWithParent()
	cfg := DefaultConfig(chaosN, chaosM)
	cfg.Seed = 1
	cfg.JournalPath = filepath.Join(dir, "wal")
	cfg.JournalSync = journal.SyncAlways // acks must mean durable
	if v := os.Getenv(chaosSnapEnv); v != "" {
		// Snapshot-chaos mode: snapshot+compact every few batches over
		// tiny segments, so the SIGKILL lands inside a snapshot write or
		// a compaction delete with high probability.
		every, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("chaos child: bad %s: %v", chaosSnapEnv, err)
		}
		cfg.SnapshotEveryBatches = every
		cfg.JournalSegmentBytes = 128
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	// Serve until SIGKILL, or until the parent dies (ExitWithParent).
	t.Fatalf("chaos child: listener exited: %v", http.Serve(ln, s.Handler()))
}

// startChaosChild re-execs the test binary as a victim daemon in dir and
// waits for its address. The caller SIGKILLs it via child.Process.Kill and
// reaps it with child.Wait; the cleanup handles tests that bail out early,
// and the child exits by itself if this process dies first.
func startChaosChild(t *testing.T, dir string, extraEnv ...string) (base string, out *bytes.Buffer, child *exec.Cmd) {
	t.Helper()
	child = reexec.Command("TestChaosChildDaemon", append([]string{chaosDirEnv + "=" + dir}, extraEnv...)...)
	var childOut bytes.Buffer
	child.Stdout, child.Stderr = &childOut, &childOut
	if err := reexec.Start(child); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = child.Process.Kill()
		_ = child.Wait() // double Wait errors harmlessly after a clean reap
	})

	addrPath := filepath.Join(dir, "addr")
	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("chaos child never came up; output:\n%s", childOut.String())
		}
		if b, err := os.ReadFile(addrPath); err == nil {
			addr = string(b)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	return "http://" + addr, &childOut, child
}

// TestChaosKillMidIngest is the crash-safety acceptance test: a daemon is
// SIGKILLed while a client streams vote batches, and on replay every batch
// that was acknowledged before the kill must be recovered. The journal
// tail torn by the kill (or corrupted afterwards) must be detected and
// truncated, never silently replayed.
func TestChaosKillMidIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	dir := t.TempDir()
	base, childOut, child := startChaosChild(t, dir)

	// Stream unique single-vote batches; record every acknowledged vote.
	// The kill lands while a request is typically in flight, so the final
	// journal record may be torn — that is the point.
	var acked []crowd.Vote
	seq := 0
	post := func() bool {
		v := chaosVote(seq)
		seq++
		body, err := json.Marshal(ingestRequest{Votes: []voteJSON{{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/votes", "application/json", bytes.NewReader(body))
		if err != nil {
			return false // connection died: the kill landed
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d before kill", resp.StatusCode)
		}
		acked = append(acked, v)
		return true
	}
	for len(acked) < 25 {
		if !post() {
			t.Fatalf("daemon died before the kill; output:\n%s", childOut.String())
		}
	}
	// SIGKILL mid-stream: keep posting from this goroutine while the kill
	// is delivered asynchronously, so acks and the kill genuinely race.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && post(); i++ {
	}
	_ = child.Wait() // reap; exit status is the kill signal

	// Recovery 1: replay the journal into a fresh engine. Every
	// acknowledged vote must be there.
	cfg := DefaultConfig(chaosN, chaosM)
	cfg.Seed = 1
	cfg.JournalPath = filepath.Join(dir, "wal")
	assertRecoversAcked := func(label string, wantTruncated bool) *Server {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		if wantTruncated && !s.Recovered().Truncated() {
			t.Fatalf("%s: corrupted tail was not reported: %+v", label, s.Recovered())
		}
		votes, _ := s.snapshot()
		have := make(map[submissionKey]bool, len(votes))
		for _, v := range votes {
			have[keyOf(v)] = true
		}
		for i, v := range acked {
			if !have[keyOf(v)] {
				t.Fatalf("%s: acked vote %d (%+v) lost in recovery (recovered %d of %d)",
					label, i, v, len(votes), len(acked))
			}
		}
		return s
	}
	s := assertRecoversAcked("post-kill", false)
	recoveredBatches := s.Recovered().Records
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery 2: a torn tail — a record header promising more payload
	// than exists, as a partial write would leave. It must be truncated
	// and reported, and the acked prefix must survive untouched.
	f, err := os.OpenFile(activeSegment(t, cfg.JournalPath), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s = assertRecoversAcked("torn-tail", true)
	if s.Recovered().Records != recoveredBatches {
		t.Fatalf("torn tail changed the recovered batch count: %d vs %d",
			s.Recovered().Records, recoveredBatches)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery 3: bit-flip the (now repaired) journal's final byte — a
	// checksum failure in the last record. Only that record may be
	// rejected; it must not be silently replayed.
	seg := activeSegment(t, cfg.JournalPath)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := New(cfg)
	if err != nil {
		t.Fatalf("bit-flip recovery failed: %v", err)
	}
	if !s3.Recovered().Truncated() {
		t.Fatal("bit-flipped record was silently replayed")
	}
	if s3.Recovered().Records != recoveredBatches-1 {
		t.Fatalf("bit flip should drop exactly the last record: replayed %d, want %d",
			s3.Recovered().Records, recoveredBatches-1)
	}

	// The repaired daemon must serve: restart HTTP in-process and rank.
	req := httptest.NewRequest(http.MethodGet, "/rank?deadline_ms=2000", nil)
	rec := httptest.NewRecorder()
	s3.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery rank status %d: %s", rec.Code, rec.Body.String())
	}
	var rr RankResult
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, chaosN, rr.Ranking)
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosKillDuringSnapshotCompaction is the bounded-recovery acceptance
// test: the victim daemon snapshots and compacts every other acked batch
// over tiny segments, so the SIGKILL lands inside a snapshot write or a
// compaction delete with high probability. Recovery must (a) keep every
// acknowledged vote, and (b) be bounded — seeded from a snapshot at some
// generation G, replaying exactly the records past G, asserted via
// RecoveryStats.
func TestChaosKillDuringSnapshotCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	dir := t.TempDir()
	base, childOut, child := startChaosChild(t, dir, chaosSnapEnv+"=2")

	var acked []crowd.Vote
	seq := 0
	post := func() bool {
		v := chaosVote(seq)
		seq++
		body, err := json.Marshal(ingestRequest{Votes: []voteJSON{{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/votes", "application/json", bytes.NewReader(body))
		if err != nil {
			return false // connection died: the kill landed
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d before kill", resp.StatusCode)
		}
		acked = append(acked, v)
		return true
	}
	// Enough acked batches for ~15 snapshot+compaction cycles before the
	// kill races the stream.
	for len(acked) < 30 {
		if !post() {
			t.Fatalf("daemon died before the kill; output:\n%s", childOut.String())
		}
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && post(); i++ {
	}
	_ = child.Wait()

	cfg := DefaultConfig(chaosN, chaosM)
	cfg.Seed = 1
	cfg.JournalPath = filepath.Join(dir, "wal")
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v\nchild output:\n%s", err, childOut.String())
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	rec := s.Recovered()

	// (a) No acked vote may be lost, however the kill interleaved with
	// snapshot writes and segment deletes.
	votes, _ := s.snapshot()
	have := make(map[submissionKey]bool, len(votes))
	for _, v := range votes {
		have[keyOf(v)] = true
	}
	for i, v := range acked {
		if !have[keyOf(v)] {
			t.Fatalf("acked vote %d (%+v) lost (recovered %d of %d; recovery: %s)",
				i, v, len(votes), len(acked), rec)
		}
	}

	// (b) Bounded recovery: a snapshot seeded the state (with a snapshot
	// every 2 batches and >= 30 acked, at least one complete one is on
	// disk — a torn write never renames into place), and the replay was
	// exactly the suffix past its coverage.
	if rec.SnapshotPath == "" || rec.SnapshotSeq == 0 {
		t.Fatalf("recovery did not use a snapshot: %s", rec)
	}
	if got, want := rec.Records, int(rec.NextSeq-rec.SnapshotSeq); got != want {
		t.Fatalf("replayed %d records after snapshot seq %d, want exactly the %d-record suffix (%s)",
			got, rec.SnapshotSeq, want, rec)
	}
	if rec.SnapshotVotes+rec.Records < len(acked) {
		t.Fatalf("snapshot (%d votes) + replay (%d records) cannot cover %d acked batches",
			rec.SnapshotVotes, rec.Records, len(acked))
	}
}
