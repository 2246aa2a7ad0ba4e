package snapshot

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"crowdrank/internal/crowd"
	"crowdrank/internal/record"
)

func sampleState(seq uint64) State {
	return State{
		N: 6, M: 3, Seq: seq, Gen: seq * 2, DupVotes: int(seq),
		Votes: []crowd.Vote{
			{Worker: 0, I: 0, J: 1, PrefersI: true},
			{Worker: 1, I: 2, J: 5, PrefersI: false},
			{Worker: 2, I: 3, J: 4, PrefersI: true},
		},
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(42)
	path, err := Write(dir, st)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "42") {
		t.Fatalf("unexpected snapshot path %q", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != st.N || got.M != st.M || got.Seq != st.Seq || got.Gen != st.Gen || got.DupVotes != st.DupVotes {
		t.Fatalf("metadata mismatch: got %+v want %+v", got, st)
	}
	if len(got.Votes) != len(st.Votes) {
		t.Fatalf("vote count %d, want %d", len(got.Votes), len(st.Votes))
	}
	for i := range st.Votes {
		if got.Votes[i] != st.Votes[i] {
			t.Fatalf("vote %d = %+v, want %+v", i, got.Votes[i], st.Votes[i])
		}
	}
	// No tmp residue after a clean write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("tmp residue %s after clean write", e.Name())
		}
	}
}

func TestLoadRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path, err := Write(dir, sampleState(7))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// reframe puts payload under magic with a valid checksum and length.
	reframe := func(magic string, payload []byte) []byte {
		c := binary.LittleEndian.AppendUint32([]byte(magic), record.Checksum(payload))
		c = binary.LittleEndian.AppendUint64(c, uint64(len(payload)))
		return append(c, payload...)
	}
	// A version-1 payload ends after the votes: sampleState has no acks,
	// so it is the clean payload without its trailing zero ack count.
	v1Payload := clean[headerSize : len(clean)-1]
	damage := []struct {
		name   string
		mutate func([]byte) []byte
		want   string // a substring the error must carry, if any
	}{
		{"bit flip in payload", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x20
			return c
		}, ""},
		{"bit flip in magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0x01
			return c
		}, "bad magic"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, ""},
		{"truncated header", func(b []byte) []byte { return b[:10] }, ""},
		{"empty", func([]byte) []byte { return nil }, ""},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xFF) }, ""},
		// The retired version-1 format is refused by name, never guessed
		// at, and so is a v1 payload under the current magic.
		{"version-1 file", func([]byte) []byte { return reframe("CRWDSNP\x01", v1Payload) }, `"CRWDSNP\x01"`},
		{"v1 payload under v2 magic", func([]byte) []byte { return reframe("CRWDSNP\x02", v1Payload) }, "ack count"},
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad")
			data := tc.mutate(clean)
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want a refusal naming %q", err, tc.want)
			}
			if got, err := os.ReadFile(bad); err != nil || string(got) != string(data) {
				t.Fatalf("refused snapshot changed (err=%v)", err)
			}
		})
	}
}

func TestLoadRejectsOutOfUniverseVotes(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(1)
	st.Votes = append(st.Votes, crowd.Vote{Worker: 99, I: 0, J: 1, PrefersI: true})
	path, err := Write(dir, st)
	if err != nil {
		t.Fatal(err)
	}
	// The checksum is fine — the *content* is inconsistent. A snapshot is
	// written from validated state, so this means corruption upstream.
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("out-of-universe vote should fail Load, got %v", err)
	}
}

func TestListNewestFirstAndPrune(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{5, 90, 12} {
		if _, err := Write(dir, sampleState(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Decoys: a tmp leftover and an unrelated file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, Prefix+"00000000000000000099.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.000001"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Seq != 90 || entries[1].Seq != 12 || entries[2].Seq != 5 {
		t.Fatalf("unexpected listing %+v", entries)
	}

	removed, err := Prune(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || !strings.Contains(removed[0], "5") {
		t.Fatalf("prune removed %v, want just the oldest", removed)
	}
	entries, err = List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Seq != 12 {
		t.Fatalf("after prune: %+v", entries)
	}
	if usage := DiskUsage(dir); usage <= 0 {
		t.Fatalf("disk usage should count surviving snapshots, got %d", usage)
	}
	// Listing a directory that does not exist is empty, not an error.
	missing, err := List(filepath.Join(dir, "nope"))
	if err != nil || missing != nil {
		t.Fatalf("missing dir: %v %v", missing, err)
	}
}

func TestWriteCleansStaleTmp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, Prefix+"00000000000000000003.tmp")
	if err := os.WriteFile(stale, []byte("crashed writer residue"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(dir, sampleState(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived a successful write: %v", err)
	}
}

// loadSlack is what loading a snapshot file allocates whatever it holds:
// the file handle, the read's slack and error texts.
const loadSlack = 64 << 10

// FuzzSnapshotLoad feeds arbitrary bytes to Load: whatever the damage, it
// must never panic and must either reject the file or return a State
// that survives a write-load round trip unchanged.
func FuzzSnapshotLoad(f *testing.F) {
	dir := f.TempDir()
	path, err := Write(dir, sampleState(3))
	if err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-2])
	f.Add([]byte{})
	f.Add([]byte("CRWDSNP\x01 then garbage"))
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		target := filepath.Join(t.TempDir(), "snap")
		if err := os.WriteFile(target, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The daemon's load, into packed votes, may allocate at most 8
		// bytes per file byte plus loadSlack (Load's []crowd.Vote copy
		// of an accepted state is the caller's, and takes up to 8 more).
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = LoadImage(target, 0)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+loadSlack); got > bound {
			t.Fatalf("loading %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		st, err := Load(target)
		if err != nil {
			return // rejected: fine, no panic
		}
		// Accepted states must be internally consistent enough to
		// round-trip bit-identically through Write+Load.
		for i, v := range st.Votes {
			if err := v.Validate(st.N, st.M); err != nil {
				t.Fatalf("accepted snapshot holds invalid vote %d: %v", i, err)
			}
		}
		again, err := Write(t.TempDir(), st)
		if err != nil {
			t.Fatalf("rewriting accepted state: %v", err)
		}
		st2, err := Load(again)
		if err != nil {
			t.Fatalf("reloading rewritten state: %v", err)
		}
		if st2.N != st.N || st2.M != st.M || st2.Seq != st.Seq || st2.Gen != st.Gen ||
			st2.DupVotes != st.DupVotes || len(st2.Votes) != len(st.Votes) || len(st2.Acks) != len(st.Acks) {
			t.Fatalf("round trip drift: %+v vs %+v", st, st2)
		}
		for i := range st.Votes {
			if st.Votes[i] != st2.Votes[i] {
				t.Fatalf("vote %d drifted: %+v vs %+v", i, st.Votes[i], st2.Votes[i])
			}
		}
	})
}

func TestAckWindowRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(11)
	st.Acks = []AckEntry{
		{Key: "0123456789abcdef", Accepted: 3, Duplicates: 1, Malformed: 2, Seq: 1, TotalVotes: 3},
		{Key: "k2", Accepted: 0, Duplicates: 4, Malformed: 0, Seq: 2, TotalVotes: 3},
	}
	path, err := Write(dir, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Acks) != len(st.Acks) {
		t.Fatalf("ack count %d, want %d", len(got.Acks), len(st.Acks))
	}
	for i := range st.Acks {
		if got.Acks[i] != st.Acks[i] {
			t.Fatalf("ack %d = %+v, want %+v", i, got.Acks[i], st.Acks[i])
		}
	}
}

func TestLoadRejectsBadAckSection(t *testing.T) {
	base := sampleState(4)
	damage := map[string]State{
		"oversized key": {N: base.N, M: base.M, Seq: 4, Votes: base.Votes,
			Acks: []AckEntry{{Key: strings.Repeat("k", maxAckKeyLen+1), Accepted: 1}}},
		"empty key": {N: base.N, M: base.M, Seq: 4, Votes: base.Votes,
			Acks: []AckEntry{{Key: "", Accepted: 1}}},
	}
	for name, st := range damage {
		t.Run(name, func(t *testing.T) {
			// Write validates nothing about acks (serve enforces the bound
			// at ingest), so the file is produced; Load must refuse it.
			path, err := Write(t.TempDir(), st)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err == nil {
				t.Fatal("snapshot with a damaged ack section loaded without error")
			}
		})
	}
}
