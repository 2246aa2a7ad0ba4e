package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/snapshot"
)

// ingestVotes ingests one batch of the chaos vote stream, folded into
// snapCfg's 8×4 universe, and returns how many votes it carried.
func ingestVotes(t *testing.T, s *Server, from, count int) int {
	t.Helper()
	batch := make([]crowd.Vote, 0, count)
	for seq := from; seq < from+count; seq++ {
		v := chaosVote(seq)
		v.Worker, v.I, v.J = v.Worker%4, v.I%8, v.J%8
		if v.I == v.J {
			v.J = (v.I + 1) % 8
		}
		batch = append(batch, v)
	}
	if _, err := s.Ingest(batch); err != nil {
		t.Fatalf("ingest from %d: %v", from, err)
	}
	return count
}

// writeSnapshotAs lands st's encoding under the snapshot filename of seq,
// which need not be st.Seq.
func writeSnapshotAs(t *testing.T, dir string, seq uint64, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%s%020d", snapshot.Prefix, seq))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fullReplayCut recovers a copy of dir's journal segments, without its
// snapshots, and returns the state a full replay rebuilds.
func fullReplayCut(t *testing.T, cfg Config) snapshot.Image {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(cfg.JournalPath, "journal.*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s: %v", cfg.JournalPath, err)
	}
	cfg.JournalPath = filepath.Join(t.TempDir(), "replay")
	if err := os.MkdirAll(cfg.JournalPath, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.JournalPath, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, cfg)
	if rec := s.Recovered(); rec.SnapshotPath != "" {
		t.Fatalf("reference recovery used a snapshot: %s", rec)
	}
	return s.cut()
}

// TestRecoverySizesVoteSliceOnce: recovery allocates the vote slice at its
// final size, the snapshot's votes plus every vote the journal suffix
// decodes to, duplicates included; replay never grows it.
func TestRecoverySizesVoteSliceOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 6; i++ {
		ingestOne(t, s, i)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	suffix := ingestVotes(t, s, 100, 3)
	suffix += ingestVotes(t, s, 100, 2) // two duplicates: decoded, then suppressed
	want := s.cut()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	rec := s2.Recovered()
	if rec.SnapshotPath == "" || rec.Records != 2 {
		t.Fatalf("want snapshot plus a 2-record suffix, got: %s", rec)
	}
	if got := VoteCap(s2); got != rec.SnapshotVotes+suffix {
		t.Fatalf("vote slice capacity %d, want %d snapshot + %d suffix votes", got, rec.SnapshotVotes, suffix)
	}
	if got := s2.cut(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}

	// A full replay sizes the slice from the whole journal the same way.
	full := snapCfg(t, filepath.Join(t.TempDir(), "full"))
	s3 := newTestServer(t, full)
	votes := ingestVotes(t, s3, 0, 3) + ingestVotes(t, s3, 50, 2)
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	s4 := newTestServer(t, full)
	if got := VoteCap(s4); got != votes {
		t.Fatalf("full replay: vote slice capacity %d, want %d", got, votes)
	}
}

// TestSnapshotSeqMismatchRefused: recovery replays the journal from the
// sequence a snapshot's filename names, so a snapshot whose content covers
// another sequence is refused and the next candidate is tried.
func TestSnapshotSeqMismatchRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		ingestOne(t, s, i)
	}
	want := s.cut()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotAs(t, dir, 3, snapshot.EncodeImage(want)) // content covers seq 5

	s2 := newTestServer(t, cfg)
	rec := s2.Recovered()
	if len(rec.CorruptSnapshots) != 1 || !strings.Contains(rec.CorruptSnapshots[0], filepath.Base(path)) ||
		!strings.Contains(rec.CorruptSnapshots[0], "content covers seq 5, filename says 3") {
		t.Fatalf("seq mismatch not refused: %+v", rec.CorruptSnapshots)
	}
	if rec.SnapshotPath != "" || rec.Records != 5 {
		t.Fatalf("expected a full replay of 5 records, got: %s", rec)
	}
	if got := s2.cut(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
}

// TestCorruptSnapshotRefusedAfterJournalOpen: the newest snapshot fails to
// load after its journal suffix was read. Its journal is closed, the older
// snapshot recovers the same state a full replay rebuilds, the torn tail
// the first open cut is still reported, and the server closes cleanly.
func TestCorruptSnapshotRefusedAfterJournalOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := snapCfg(t, dir)
	s := newTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		ingestOne(t, s, i)
	}
	if _, err := snapshot.WriteImage(dir, s.cut()); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		ingestOne(t, s, i)
	}
	newest := snapshot.EncodeImage(s.cut())
	newest[len(newest)-1] ^= 0x01 // checksum mismatch
	bad := writeSnapshotAs(t, dir, 8, newest)
	want := s.cut()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal.*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil { // a torn record header
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovered()
	if len(rec.CorruptSnapshots) != 1 || !strings.Contains(rec.CorruptSnapshots[0], filepath.Base(bad)) {
		t.Fatalf("corrupt snapshot not reported: %+v", rec.CorruptSnapshots)
	}
	if rec.SnapshotSeq != 5 || rec.Records != 3 {
		t.Fatalf("want the seq-5 snapshot plus 3 records, got: %s", rec)
	}
	if rec.TruncatedBytes != 3 || rec.TailError == "" {
		t.Fatalf("torn tail not reported: %s", rec)
	}
	got := s2.cut()
	if err := s2.Close(); err != nil {
		t.Fatalf("close after a refused candidate: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if ref := fullReplayCut(t, cfg); !reflect.DeepEqual(got, ref) {
		t.Fatalf("recovered %+v, full replay %+v", got, ref)
	}
}
