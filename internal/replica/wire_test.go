package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"crowdrank/internal/record"
)

// encodeFrames writes one record frame and one heartbeat frame.
func encodeFrames(t testing.TB, seq uint64, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRecordFrame(w, seq, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeHeartbeatFrame(w, seq+1, seq/2); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameSlack is what reading frames allocates beyond 8 bytes per input
// byte: the reader's buffer and the first 32 KiB payload chunk.
const frameSlack = 64 << 10

// FuzzReadFrame drives the follower's frame decoder, which parses bytes
// from the network. On arbitrary input readFrame must never panic and
// must end in an error; frames the leader side wrote must decode to what
// was written; and a record frame with any one payload bit flipped must
// be refused, never handed on for the follower to journal.
func FuzzReadFrame(f *testing.F) {
	good := encodeFrames(f, 7, []byte("payload"))
	f.Add(good, uint64(7), uint(0))
	f.Add([]byte{}, uint64(1<<40), uint(77))
	// A torn record frame, an unknown kind, and an implausible length.
	f.Add(good[:20], uint64(1), uint(3))
	f.Add([]byte("X0123456789abcdef"), uint64(0), uint(9))
	f.Add(append([]byte("R\x07\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"), good[13:]...), uint64(2), uint(1))

	f.Fuzz(func(t *testing.T, data []byte, seq uint64, bit uint) {
		// Arbitrary bytes: decode frames until the stream ends or breaks,
		// allocating at most 8 bytes per input byte plus frameSlack.
		r := bufio.NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; ; i++ {
			if _, err := readFrame(r); err != nil {
				break
			}
			if i > len(data) {
				t.Fatalf("%d frames decoded from %d bytes", i, len(data))
			}
		}
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+frameSlack); got > bound {
			t.Fatalf("reading frames from %d bytes allocated %d, bound %d", len(data), got, bound)
		}

		// The same bytes as a record payload: what the writer emits reads
		// back exactly. The journal never holds an empty or oversized
		// record, so the leader never streams one.
		if len(data) == 0 || len(data) > record.MaxPayload {
			return
		}
		wire := encodeFrames(t, seq, data)
		r = bufio.NewReader(bytes.NewReader(wire))
		rec, err := readFrame(r)
		if err != nil || rec.kind != frameRecord || rec.seq != seq || !bytes.Equal(rec.payload, data) {
			t.Fatalf("record frame did not round-trip: %+v, %v", rec, err)
		}
		hb, err := readFrame(r)
		if err != nil || hb.kind != frameHeartbeat || hb.next != seq+1 || hb.epoch != seq/2 {
			t.Fatalf("heartbeat frame did not round-trip: %+v, %v", hb, err)
		}

		// One flipped payload bit fails the checksum.
		const payloadAt = 1 + 8 + record.HeaderSize
		bit %= uint(8 * len(data))
		wire[payloadAt+int(bit/8)] ^= 1 << (bit % 8)
		if rec, err := readFrame(bufio.NewReader(bytes.NewReader(wire))); err == nil {
			t.Fatalf("frame with payload bit %d flipped decoded as %+v", bit, rec)
		}
	})
}

// TestReadFrameBoundsAllocation feeds readFrame crafted record frames
// whose header claims far more payload than follows, and one that
// delivers a full payload under a wrong checksum: reading a frame may
// allocate at most 8 bytes per input byte plus frameSlack before it is
// refused. The
// serve package's TestDecodersBoundAllocation holds the daemon's own
// decoders to the same bound.
func TestReadFrameBoundsAllocation(t *testing.T) {
	// crafted is a record frame header claiming claim payload bytes,
	// followed by sent zero bytes and a checksum that never matches.
	crafted := func(claim, sent int) []byte {
		hdr := binary.LittleEndian.AppendUint64([]byte{frameRecord}, 1)
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(claim))
		hdr = binary.LittleEndian.AppendUint32(hdr, 1)
		return append(hdr, make([]byte, sent)...)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"claims the cap, sends nothing", crafted(record.MaxPayload, 0)},
		{"claims the cap, sends 1 MiB", crafted(record.MaxPayload, 1<<20)},
		{"claims the cap, sends 1 MiB + 1", crafted(record.MaxPayload, 1<<20+1)},
		{"sends what it claims, bad checksum", crafted(1<<20, 1<<20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bufio.NewReader(bytes.NewReader(tc.data))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := readFrame(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("crafted frame decoded without error")
			}
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(tc.data)+frameSlack); got > bound {
				t.Fatalf("reading %d bytes allocated %d, bound %d (%v)", len(tc.data), got, bound, err)
			}
		})
	}
}
