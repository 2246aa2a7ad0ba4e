package crowd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// referenceReadVote is ReadVote as a plain binary.Uvarint loop, the
// definition the inline fast path must match.
func referenceReadVote(data []byte) (Vote, []byte, error) {
	var ids [3]int
	for f := range ids {
		x, k := binary.Uvarint(data)
		if k <= 0 {
			return Vote{}, data, fmt.Errorf("%s unreadable", voteFields[f])
		}
		data = data[k:]
		ids[f] = -1
		if x < 1<<31 {
			ids[f] = int(x)
		}
	}
	if len(data) == 0 {
		return Vote{}, data, errors.New("missing preference byte")
	}
	if data[0] > 1 {
		return Vote{}, data, fmt.Errorf("preference byte %d", data[0])
	}
	return Vote{Worker: ids[0], I: ids[1], J: ids[2], PrefersI: data[0] == 1}, data[1:], nil
}

// FuzzReadVote checks ReadVote against referenceReadVote on arbitrary
// bytes: the same Vote, the same remaining bytes and the same error text.
func FuzzReadVote(f *testing.F) {
	enc := func(ids ...uint64) []byte {
		var b []byte
		for _, id := range ids {
			b = binary.AppendUvarint(b, id)
		}
		return b
	}
	f.Add(append(enc(127, 128, 0), 1))
	f.Add(append(enc(16383, 16384, 5), 0))
	f.Add(append(enc(1<<31-1, 1<<31, 2), 1, 0xff))
	f.Add(append(enc(1<<63, 3, 4), 0))
	f.Add(enc(200, 199))                        // truncated before object j
	f.Add([]byte{0x80})                         // truncated inside the worker
	f.Add(append(enc(1, 2, 3), 2))              // preference byte 2
	f.Add([]byte{0x80, 0x00, 0xff, 0x7f, 0, 1}) // non-canonical two-byte ids
	f.Add(bytes.Repeat([]byte{0xff}, 11))       // varint overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := ReadVote(data)
		wv, wrest, werr := referenceReadVote(data)
		if v != wv || !bytes.Equal(rest, wrest) || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("ReadVote(%x) = %+v, %x, %v; reference %+v, %x, %v", data, v, rest, err, wv, wrest, werr)
		}
	})
}
