// Package record owns the checksummed record framing crowdrankd writes
// in two places: journal segments and the replication stream's record
// frames. A record is
//
//	4 bytes  payload length, little-endian uint32
//	4 bytes  CRC32-Castagnoli of the payload, little-endian
//	N bytes  payload
//
// and both places must agree byte for byte, since a follower appends the
// leader's streamed records verbatim to its own journal. The package also
// holds the CRC32-C table the snapshot format checksums its payload with.
//
// Callers keep their own policy for a bad record: journal replay cuts a
// torn tail, a journal reader and the stream decoder return an error.
package record

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// HeaderSize is the per-record prefix: 4-byte length + 4-byte CRC.
const HeaderSize = 8

// MaxPayload caps one record's payload. The journal refuses to append a
// larger one, and a header promising more is corruption, which bounds the
// allocation a torn file or a hostile peer can force.
const MaxPayload = 16 << 20

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendHeader appends the record header for payload to dst; the caller
// appends the payload itself.
func AppendHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, Checksum(payload))
}

// Header is a decoded record header.
type Header struct {
	Len uint32 // payload length
	Sum uint32 // CRC32-C the writer recorded
}

// ParseHeader decodes the HeaderSize bytes at the front of b. A length of
// zero or beyond MaxPayload is an error: no writer produces one.
func ParseHeader(b []byte) (Header, error) {
	h := Header{Len: binary.LittleEndian.Uint32(b[0:4]), Sum: binary.LittleEndian.Uint32(b[4:8])}
	if h.Len == 0 || h.Len > MaxPayload {
		return h, fmt.Errorf("implausible record length %d (max %d)", h.Len, MaxPayload)
	}
	return h, nil
}

// Check verifies payload against the checksum the header recorded.
func (h Header) Check(payload []byte) error {
	if got := Checksum(payload); got != h.Sum {
		return fmt.Errorf("checksum mismatch: recorded %08x, computed %08x", h.Sum, got)
	}
	return nil
}
