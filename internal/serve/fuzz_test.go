package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"crowdrank/internal/invariant"
	"crowdrank/internal/journal"
)

const fuzzN, fuzzM = 8, 4

// fuzzJournalBytes builds a valid single-segment journal holding the
// given batches, for seeding the corpus with structurally real inputs.
func fuzzJournalBytes(t testing.TB, batches ...[]byte) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "seed.wal")
	j, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncOS}, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := j.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.000001"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replaySlack is what opening a journal allocates whatever it holds: the
// 64 KiB segment scan buffer, file handles and the segment list.
const replaySlack = 256 << 10

// FuzzJournalReplay feeds arbitrary bytes to the journal decoder as a
// recovered file. Whatever the damage — truncation, bit flips, garbage —
// replay must never panic, must stop at the first bad record, and the
// repair must be stable: reopening the repaired file replays the identical
// payload sequence with no further truncation. When the surviving records
// decode into votes, the whole daemon pipeline runs over them and the
// invariant oracles vet the served ranking.
func FuzzJournalReplay(f *testing.F) {
	// One legacy v1 record, then a keyed v2 record, as an upgraded
	// daemon's journal holds them.
	clean := fuzzJournalBytes(f,
		appendVotes(nil, packed(agreeingVotes(fuzzN, fuzzM)[:5])),
		encodeBatch("fuzz-key", 1, packed(agreeingVotes(fuzzN, fuzzM)[5:9])),
	)
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // torn tail
	flipped := bytes.Clone(clean)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)   // mid-file bit flip
	f.Add(clean[:8]) // header only
	f.Add([]byte{})  // empty file
	// A segment header (first seq 0), then an implausible record length.
	f.Add([]byte("CRWDSEG\x01\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff then garbage"))
	f.Add([]byte("NOTAWAL\x01rest")) // wrong magic

	f.Fuzz(func(t *testing.T, data []byte) {
		// The bytes land as the first journal segment in an otherwise
		// empty journal directory — exactly what a recovering daemon sees.
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, "journal.000001"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var first [][]byte
		// Replaying the bytes, and decoding what replays, may allocate at
		// most 8 bytes per input byte plus the scan buffer and the
		// journal's own bookkeeping.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, stats, err := journal.Open(path, journal.Options{}, func(p []byte) error {
			first = append(first, bytes.Clone(p))
			_, _ = decodeBatchRecord(p, fuzzN, fuzzM)
			return nil
		})
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+replaySlack); got > bound {
			t.Fatalf("replaying %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return // rejected outright (bad magic, short header): fine, no panic
		}
		if len(first) != stats.Records {
			t.Fatalf("callback saw %d records, stats say %d", len(first), stats.Records)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		// Repair stability: the truncated file must reopen cleanly and
		// replay the exact same payloads.
		var second [][]byte
		j2, stats2, err := journal.Open(path, journal.Options{}, func(p []byte) error {
			second = append(second, bytes.Clone(p))
			return nil
		})
		if err != nil {
			t.Fatalf("repaired journal failed to reopen: %v", err)
		}
		if stats2.Truncated() {
			t.Fatalf("repair is not stable: second open truncated again: %+v", stats2)
		}
		if len(second) != len(first) {
			t.Fatalf("replay not deterministic: %d then %d records", len(first), len(second))
		}
		for i := range second {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs between replays", i)
			}
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}

		// Decode layer must not panic either; count the surviving votes.
		votes := 0
		decodable := true
		for _, p := range first {
			rec, err := decodeBatchRecord(p, fuzzN, fuzzM)
			if err != nil {
				decodable = false
				break
			}
			votes += len(rec.votes)
		}
		if !decodable || votes == 0 || votes > 128 {
			return
		}
		// Full pipeline over the recovered state, vetted by the invariant
		// oracles: the ranking must be a permutation no matter what bytes
		// seeded the journal.
		cfg := DefaultConfig(fuzzN, fuzzM)
		cfg.Seed = 5
		cfg.JournalPath = path
		s, err := New(cfg)
		if err != nil {
			return // e.g. undecodable under a different record split: refused, not panicked
		}
		defer func() {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := s.RankContext(ctx)
		if err != nil {
			t.Fatalf("rank over recovered state failed: %v", err)
		}
		if err := invariant.VerifyRanking(fuzzN, res.Ranking); err != nil {
			t.Fatalf("served ranking violates invariant: %v", err)
		}
	})
}
