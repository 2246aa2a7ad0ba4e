package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/serve"
	"crowdrank/internal/snapshot"
)

// TestGoldenBytes pins every byte format crowdrankd writes to disk or to
// a follower: a journal segment, the replication stream's record and
// heartbeat frames, a keyed batch record, and a snapshot file. Journals,
// snapshots and streams written by a deployed daemon must stay readable,
// so a change to any of these bytes is a format change, never a refactor.
// It reaches each format through its public writer (or, for frames, the
// package's own), so it holds across changes to the codecs behind them.
func TestGoldenBytes(t *testing.T) {
	votes := []crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 3, I: 7, J: 2, PrefersI: false},
		{Worker: 2, I: 5, J: 6, PrefersI: true},
	}
	check := func(t *testing.T, got []byte, want string) {
		t.Helper()
		if g := hex.EncodeToString(got); g != want {
			t.Fatalf("bytes changed:\n got %s\nwant %s", g, want)
		}
	}
	segment := func(t *testing.T, dir string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "journal.000001"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	t.Run("journal segment", func(t *testing.T) {
		dir := t.TempDir()
		j, _, err := journal.Open(dir, journal.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"alpha", "beta"} {
			if _, err := j.Append([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, segment(t, dir),
			"43525744534547010000000000000000"+ // "CRWDSEG\x01", first seq 0
				"05000000"+"812fd978"+"616c706861"+ // len 5, crc32c, "alpha"
				"04000000"+"b9cb43f4"+"62657461") // len 4, crc32c, "beta"
	})

	t.Run("record frame", func(t *testing.T) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeRecordFrame(w, 7, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		check(t, buf.Bytes(), "52"+"0700000000000000"+ // 'R', seq 7
			"07000000"+"7069e3f4"+"7061796c6f6164") // the journal record header, "payload"
	})

	t.Run("heartbeat frame", func(t *testing.T) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeHeartbeatFrame(w, 9, 3); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		check(t, buf.Bytes(), "48"+"0900000000000000"+"0300000000000000")
	})

	t.Run("keyed batch record", func(t *testing.T) {
		dir := t.TempDir()
		cfg := serve.DefaultConfig(testN, testM)
		cfg.JournalPath = dir
		cfg.Seed = 42
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The out-of-universe vote is counted as malformed, not journaled.
		batch := append(append([]crowd.Vote(nil), votes...), crowd.Vote{Worker: testM, I: 0, J: 1})
		if _, err := s.IngestKeyed(context.Background(), "golden-key", batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, segment(t, dir),
			"43525744534547010000000000000000"+ // segment header, first seq 0
				"1a000000"+"569679c2"+ // record header: len 26, crc32c
				"00"+"0a"+"676f6c64656e2d6b6579"+ // v2 marker, key length 10, "golden-key"
				"01"+"03"+ // malformed 1, vote count 3
				"00000101"+"03070200"+"02050601") // (worker, i, j, prefersI) x 3
	})

	t.Run("snapshot file", func(t *testing.T) {
		st := snapshot.State{
			N: testN, M: testM, Seq: 5, Gen: 3, DupVotes: 1,
			Votes: votes,
			Acks: []snapshot.AckEntry{
				{Key: "k1", Accepted: 2, Duplicates: 1, Malformed: 0, Seq: 4, TotalVotes: 3},
				{Key: "golden-key", Accepted: 3, Duplicates: 0, Malformed: 1, Seq: 5, TotalVotes: 3},
			},
		}
		check(t, snapshot.Encode(st),
			"43525744534e5002"+"0dbd7a71"+"2b00000000000000"+ // "CRWDSNP\x02", crc32c, payload length 43
				"08"+"04"+"05"+"03"+"01"+ // n, m, seq, gen, duplicates
				"03"+"00000101"+"03070200"+"02050601"+ // 3 votes
				"02"+"026b31"+"0201000403"+ // 2 acks: "k1" and its five counters
				"0a676f6c64656e2d6b6579"+"0300010503")
	})
}
