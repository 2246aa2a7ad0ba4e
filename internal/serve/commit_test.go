package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/snapshot"
)

// replicate feeds every record of from's journal that follower lacks to
// follower through ApplyReplicated, as the replication stream would.
func replicate(t *testing.T, from, follower *Server) {
	t.Helper()
	rd, err := from.Journal().OpenReader(follower.Journal().NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rd.Close() }()
	for {
		payload, seq, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyReplicated(seq, payload); err != nil {
			t.Fatalf("replicating seq %d: %v", seq, err)
		}
	}
}

// restart closes s and opens a new server on cfg, its journal directory.
func restart(t *testing.T, s *Server, cfg Config) *Server {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, cfg)
}

// checkCut asserts that s's consistent cut equals want and, for a server
// with a journal, that it covers exactly the journal's records.
func checkCut(t *testing.T, path string, s *Server, want snapshot.Image) {
	t.Helper()
	got := s.cut()
	if s.jnl != nil && got.Seq != s.jnl.NextSeq() {
		t.Fatalf("%s: state holds %d batches but the journal is at seq %d", path, got.Seq, s.jnl.NextSeq())
	}
	if got.N != want.N || got.M != want.M || got.Seq != want.Seq || got.Gen != want.Gen || got.DupVotes != want.DupVotes ||
		!slices.Equal(got.Votes, want.Votes) || !slices.Equal(got.Acks, want.Acks) {
		t.Fatalf("%s: cut differs from live ingest\n got %+v\nwant %+v", path, got, want)
	}
}

// TestCommitConcurrentRetriesApplyOnce races deliveries of one keyed
// batch. Those that pass the ack-window fast path before the first one
// commits rely on commit's own lookup under writeMu: exactly one delivery
// may journal and apply the batch, and the rest replay its ack.
func TestCommitConcurrentRetriesApplyOnce(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 67
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")
	cfg.JournalSync = journal.SyncOS
	s := newTestServer(t, cfg)
	batch := []crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}, {Worker: 1, I: 2, J: 3, PrefersI: false}}

	const deliveries = 8
	acks := make([]IngestResult, deliveries)
	errs := make([]error, deliveries)
	var wg sync.WaitGroup
	for i := range deliveries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acks[i], errs[i] = s.IngestKeyed(context.Background(), "once", batch)
		}()
	}
	wg.Wait()
	applied := 0
	for i, res := range acks {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !res.Replayed {
			applied++
		}
		res.Replayed = false
		if want := (IngestResult{Accepted: 2, Seq: 1, TotalVotes: 2}); res != want {
			t.Fatalf("delivery %d answered %+v, want %+v", i, res, want)
		}
	}
	if applied != 1 {
		t.Fatalf("%d deliveries applied the batch, want exactly 1", applied)
	}
	if st := s.cut(); st.Seq != 1 || s.jnl.NextSeq() != 1 {
		t.Fatalf("state at seq %d, journal at %d: want one record", st.Seq, s.jnl.NextSeq())
	}
}

// commitFuzzWindow is FuzzCommitPaths' ack window: small, so that short
// streams already evict keys.
const commitFuzzWindow = 3

type commitOp struct {
	key   string
	votes []crowd.Vote
}

// commitFuzzStream decodes fuzz bytes into a batch stream over the
// fuzzN x fuzzM universe, plus the batch before which a snapshot is
// taken. Byte 0 is the snapshot point. Each batch starts with a header
// byte h: h&7 picks the key (0 is unkeyed, else one of seven keys, which
// repeat, so later batches reuse keys both inside and beyond the window);
// (h>>3)&3 picks the kind (0 retries an earlier batch verbatim, named by
// the next byte; 1 is all malformed; 2 and 3 are plain); and 1+h>>5
// votes follow, two bytes each. A vote's worker may fall one past the
// universe and its objects may coincide, so plain batches carry
// malformed votes too, and the tiny universe makes duplicates common.
func commitFuzzStream(data []byte) (ops []commitOp, snapAt int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	snapAt = next()
	for len(data) > 0 && len(ops) < 64 {
		h := next()
		kind := (h >> 3) & 3
		if kind == 0 && len(ops) > 0 {
			ops = append(ops, ops[next()%len(ops)])
			continue
		}
		var op commitOp
		if k := h & 7; k != 0 {
			op.key = fmt.Sprintf("key-%d", k)
		}
		for range 1 + h>>5 {
			w, pair := next(), next()
			v := crowd.Vote{Worker: (w >> 1) % (fuzzM + 1), I: pair % fuzzN, J: pair / fuzzN % fuzzN, PrefersI: w&1 == 1}
			if kind == 1 {
				v.Worker += fuzzM
			}
			op.votes = append(op.votes, v)
		}
		ops = append(ops, op)
	}
	return ops, snapAt % (len(ops) + 1)
}

// FuzzCommitPaths is the vote-state machine's property test: one batch
// stream, brought into a state by each of the four paths that build one,
// must give the same consistent cut. The paths are live IngestKeyed, a
// journal-only restart, a snapshot at a fuzzed point plus the journal
// suffix, and a follower fed the leader's records through
// ApplyReplicated. Every cut must cover exactly its journal
// (state.batches == NextSeq), and every key still in the window must
// replay its original ack on every path.
func FuzzCommitPaths(f *testing.F) {
	// Keys a, junk (all malformed), b, c, then a retry of junk while the
	// three-slot window still holds it, and of a after it was evicted.
	f.Add([]byte{2, 0x11, 0x02, 0x11, 0x0a, 0x04, 0x1a, 0x13, 0x06, 0x23, 0x14, 0x03, 0x2c, 0x00, 0x01, 0x00, 0x00})
	// Unkeyed: an all-malformed batch, then the same vote twice, in one
	// batch and across batches.
	f.Add([]byte{1, 0x08, 0x02, 0x11, 0x30, 0x02, 0x11, 0x02, 0x11, 0x10, 0x02, 0x11})
	// Seven keys through the window twice over, the snapshot mid-stream,
	// with retries of early, evicted batches.
	f.Add([]byte("\x05\x31abcdef\x32ghijkl\x33mnopqr\x34stuvwx\x35yz0123\x36456789\x37ABCDEF\x00\x01\x00\x03\x29GHIJKL\x0aMN\x00\x05"))
	f.Add([]byte{})
	f.Add([]byte("every path into the vote state gives the same cut"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, snapAt := commitFuzzStream(data)
		dir := t.TempDir()
		cfg := DefaultConfig(fuzzN, fuzzM)
		cfg.Seed = 7
		cfg.IdempotencyWindow = commitFuzzWindow
		cfg.JournalSync = journal.SyncOS
		setSegmentBytes(t, 128) // a few records per segment, so the snapshot compacts some
		cfg.SnapshotEveryBatches, cfg.SnapshotMaxJournalBytes = -1, -1
		cfgOf := func(name string) Config {
			c := cfg
			c.JournalPath = filepath.Join(dir, name)
			return c
		}
		ingest := func(s *Server, snapAt int) []IngestResult {
			acks := make([]IngestResult, len(ops))
			for i, op := range ops {
				if i == snapAt {
					if _, err := s.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
				res, err := s.IngestKeyed(context.Background(), op.key, op.votes)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				acks[i] = res
			}
			if snapAt == len(ops) {
				if _, err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			return acks
		}

		// Live ingest, then a follower fed its records, then a restart
		// from its journal alone.
		live := newTestServer(t, cfgOf("live"))
		acks := ingest(live, -1)
		want := live.cut()
		checkCut(t, "live", live, want)
		follower := newTestServer(t, cfgOf("follower"))
		replicate(t, live, follower)
		checkCut(t, "follower", follower, want)
		replayed := restart(t, live, cfgOf("live"))
		if replayed.Recovered().SnapshotPath != "" {
			t.Fatalf("journal-only restart loaded a snapshot: %s", replayed.Recovered())
		}
		checkCut(t, "journal restart", replayed, want)

		// The same stream with a snapshot at snapAt, then a restart from
		// the snapshot plus the journal suffix.
		snapped := newTestServer(t, cfgOf("snapped"))
		if got := ingest(snapped, snapAt); !slices.Equal(got, acks) {
			t.Fatalf("acks differ with a snapshot at batch %d\n got %+v\nwant %+v", snapAt, got, acks)
		}
		snapped = restart(t, snapped, cfgOf("snapped"))
		if snapped.Recovered().SnapshotPath == "" {
			t.Fatalf("restart after a snapshot did not load it: %s", snapped.Recovered())
		}
		checkCut(t, "snapshot restart", snapped, want)

		for _, a := range want.Acks {
			for _, s := range []*Server{follower, replayed, snapped} {
				res, err := s.IngestKeyed(context.Background(), a.Key, nil)
				if err != nil {
					t.Fatal(err)
				}
				orig := IngestResult{Accepted: a.Accepted, Duplicates: a.Duplicates, Malformed: a.Malformed, Seq: a.Seq, TotalVotes: a.TotalVotes, Replayed: true}
				if res != orig {
					t.Fatalf("retry of %q answered %+v, want the original %+v", a.Key, res, orig)
				}
			}
		}
	})
}
