package journal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// appendN appends payloads p(start)..p(start+n-1) and fails the test on
// any error.
func appendN(t *testing.T, j *Journal, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if _, err := j.Append(payloadFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-padding-to-make-it-nontrivial", i))
}

func TestReaderReadsAndTails(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Sync: SyncOS}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 10)

	r, err := j.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		payload, seq, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Next %d returned seq %d", i, seq)
		}
		if string(payload) != string(payloadFor(i)) {
			t.Fatalf("record %d: got %q", i, payload)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("caught-up reader should return io.EOF, got %v", err)
	}

	// Tail: new appends become readable on the same reader.
	appendN(t, j, 10, 3)
	for i := 10; i < 13; i++ {
		payload, seq, err := r.Next()
		if err != nil {
			t.Fatalf("tail Next %d: %v", i, err)
		}
		if seq != uint64(i) || string(payload) != string(payloadFor(i)) {
			t.Fatalf("tail record %d: seq %d payload %q", i, seq, payload)
		}
	}
	if r.Seq() != 13 {
		t.Fatalf("reader Seq = %d, want 13", r.Seq())
	}
}

func TestReaderCrossesRotatedSegments(t *testing.T) {
	// Tiny segments force several rotations.
	j, _, err := Open(t.TempDir(), Options{Sync: SyncOS, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 40)
	if j.Segments() < 3 {
		t.Fatalf("test needs several segments, got %d", j.Segments())
	}
	r, err := j.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 40; i++ {
		payload, seq, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if seq != uint64(i) || string(payload) != string(payloadFor(i)) {
			t.Fatalf("record %d: seq %d payload %q", i, seq, payload)
		}
	}
}

func TestReaderFromMidStreamAndAtEnd(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Sync: SyncOS, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 20)

	r, err := j.OpenReader(17)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 17; i < 20; i++ {
		_, seq, err := r.Next()
		if err != nil || seq != uint64(i) {
			t.Fatalf("mid-stream Next: seq %d err %v, want %d", seq, err, i)
		}
	}

	// Opening exactly at NextSeq tails from the live end.
	tail, err := j.OpenReader(j.NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, _, err := tail.Next(); err != io.EOF {
		t.Fatalf("reader at NextSeq should be EOF, got %v", err)
	}
	if _, err := j.OpenReader(j.NextSeq() + 1); err == nil {
		t.Fatal("reader beyond NextSeq should be refused")
	}
}

func TestReaderBehindCompactionIsSeqGap(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Sync: SyncOS, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 30)
	if _, err := j.CompactThrough(20); err != nil {
		t.Fatal(err)
	}
	if got := j.FirstSeq(); got == 0 {
		t.Fatal("compaction should have advanced FirstSeq past 0")
	}
	if _, err := j.OpenReader(0); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("reader below the compaction horizon: got %v, want ErrSeqGap", err)
	}

	// A reader that was opened in time but fell behind a later compaction
	// also reports the gap instead of inventing records.
	r, err := j.OpenReader(j.FirstSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	appendN(t, j, 30, 10)
	if _, err := j.CompactThrough(j.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("reader overtaken by compaction: got %v, want ErrSeqGap", err)
	}
}

func TestReaderConcurrentWithAppends(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Sync: SyncOS, SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const total = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			if _, err := j.Append(payloadFor(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	r, err := j.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	read := 0
	for read < total {
		payload, seq, err := r.Next()
		if err == io.EOF {
			select {
			case <-done:
				// Writer finished; one more pass drains the tail.
				if r.Seq() == total {
					read = total
				}
			default:
			}
			continue
		}
		if err != nil {
			t.Fatalf("Next at %d: %v", read, err)
		}
		if seq != uint64(read) || string(payload) != string(payloadFor(read)) {
			t.Fatalf("record %d: seq %d payload %q", read, seq, payload)
		}
		read++
	}
	wg.Wait()
}

func TestPoisonFencesAppends(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 2)
	cause := errors.New("deposed by epoch 7")
	j.Poison(cause)
	if _, err := j.Append([]byte("late write")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after Poison: got %v, want ErrPoisoned", err)
	}
	if got := j.Poisoned(); !errors.Is(got, cause) {
		t.Fatalf("Poisoned() = %v, want the fencing cause", got)
	}
	// A second Poison must not overwrite the original root cause.
	j.Poison(errors.New("later cause"))
	if got := j.Poisoned(); !errors.Is(got, cause) {
		t.Fatalf("Poisoned() after re-poison = %v, want the original cause", got)
	}
	// Reads keep working on a poisoned journal: a deposed leader can still
	// be inspected, it just cannot acknowledge new writes.
	r, err := j.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, seq, err := r.Next(); err != nil || seq != 0 {
		t.Fatalf("read after Poison: seq %d err %v", seq, err)
	}
}

// TestReaderReadyWakes pins the tailing contract the replication stream
// waits on: a reader that saw io.EOF is woken by the next Append, by
// Poison and by Close, and a record appended between the EOF and the
// wait is not missed.
func TestReaderReadyWakes(t *testing.T) {
	cases := []struct {
		name string
		wake func(*Journal) error
	}{
		{"append", func(j *Journal) error { _, err := j.Append(payloadFor(0)); return err }},
		{"poison", func(j *Journal) error { j.Poison(errors.New("deposed")); return nil }},
		{"close", func(j *Journal) error { return j.Close() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, _, err := Open(t.TempDir(), Options{Sync: SyncOS}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			r, err := j.OpenReader(0)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, _, err := r.Next(); err != io.EOF {
				t.Fatalf("empty journal: Next = %v, want io.EOF", err)
			}
			ready := r.Ready()
			select {
			case <-ready:
				t.Fatal("Ready closed before anything happened")
			default:
			}
			woken := make(chan struct{})
			go func() {
				<-ready
				close(woken)
			}()
			if err := tc.wake(j); err != nil {
				t.Fatal(err)
			}
			select {
			case <-woken:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s did not wake the waiting reader", tc.name)
			}
		})
	}

	t.Run("append before wait", func(t *testing.T) {
		j, _, err := Open(t.TempDir(), Options{Sync: SyncOS}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		r, err := j.OpenReader(0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("empty journal: Next = %v, want io.EOF", err)
		}
		appendN(t, j, 0, 1) // lands after the EOF, before the wait
		select {
		case <-r.Ready():
		default:
			t.Fatal("an append between io.EOF and the wait was missed")
		}
		if _, seq, err := r.Next(); err != nil || seq != 0 {
			t.Fatalf("Next after wake = seq %d, %v; want seq 0", seq, err)
		}
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("caught-up Next = %v, want io.EOF", err)
		}
		select {
		case <-r.Ready():
			t.Fatal("a fresh EOF must hand out an open channel")
		default:
		}
	})
}
