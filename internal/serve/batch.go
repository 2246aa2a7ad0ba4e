package serve

import (
	"encoding/binary"
	"fmt"

	"crowdrank/internal/crowd"
)

// Vote batches are journaled as version-2 records in a compact varint
// encoding:
//
//	uvarint  0            marker: v1 never journals an empty batch, so a
//	                      leading zero count is unambiguous
//	uvarint  keyLen       0 for an unkeyed batch
//	keyLen bytes          the idempotency key
//	uvarint  malformed    votes dropped at validation before journaling
//	uvarint  count        0 for a keyed batch whose votes were all malformed
//	repeated count times: one crowd.AppendVote encoding
//	  (uvarint worker, i, j; 1 byte prefersI)
//
// The key and malformed count let replay rebuild the exact ack a retried
// key must receive; a zero-vote record exists only to carry that ack, so
// every keyed ack in the idempotency window has a record behind it. The original (v1) record, just count and votes, is
// read-only legacy: journals from daemons that wrote unkeyed batches that
// way still replay, each v1 record with an empty key and a zero malformed
// count.
//
// The journal layer already guarantees integrity (CRC32 per record);
// decoding guards structure: counts must match the bytes present, no
// trailing garbage, and every field must fit the configured universe.

// maxKeyLen bounds one idempotency key on disk and on the wire; longer
// keys are rejected at ingest (HTTP 400), and a journaled key beyond it
// is corruption.
const maxKeyLen = 256

// batchRecord is one decoded journal record: the votes plus the ack
// bookkeeping v2 records carry.
type batchRecord struct {
	key       string
	malformed int
	votes     []crowd.Packed
	// dropped counts decoded votes outside the configured universe, left
	// out of votes; recovery reports them in RecoveryStats.DroppedVotes.
	dropped int
}

// encodeBatch serializes one batch as a v2 journal record; key is empty
// for an unkeyed batch.
func encodeBatch(key string, malformed int, votes []crowd.Packed) []byte {
	buf := make([]byte, 0, 16+len(key)+len(votes)*7)
	buf = binary.AppendUvarint(buf, 0) // v2 marker
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(malformed))
	return appendVotes(buf, votes)
}

// appendVotes appends the vote list (count, then the votes) that ends a
// v2 record and makes up the whole of a v1 record.
func appendVotes(dst []byte, votes []crowd.Packed) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(votes)))
	for _, p := range votes {
		dst = crowd.AppendVote(dst, p.Vote())
	}
	return dst
}

// decodeBatchRecord parses either record version back into votes and ack
// bookkeeping for n objects and m workers. v1 records decode with an
// empty key and zero malformed count.
func decodeBatchRecord(data []byte, n, m int) (batchRecord, error) {
	rec, _, err := decodeBatchInto(nil, data, n, m)
	return rec, err
}

// decodeBatchInto is decodeBatchRecord decoding the votes into chunk (see
// decodeVotes) and returning the chunk to decode the next record
// into. Recovery decodes a journal suffix into a few chunks this way
// instead of into one slice per record.
func decodeBatchInto(chunk []crowd.Packed, data []byte, n, m int) (batchRecord, []crowd.Packed, error) {
	var rec batchRecord
	marker, off := binary.Uvarint(data)
	if off <= 0 {
		return rec, chunk, fmt.Errorf("serve: batch count unreadable")
	}
	rest := data // v1: the leading uvarint is the vote count itself.
	if marker == 0 {
		rest = data[off:]
		keyLen, k := binary.Uvarint(rest)
		if k <= 0 {
			return rec, chunk, fmt.Errorf("serve: batch key length unreadable")
		}
		rest = rest[k:]
		if keyLen > maxKeyLen {
			return rec, chunk, fmt.Errorf("serve: batch key length %d exceeds maximum %d", keyLen, maxKeyLen)
		}
		if uint64(len(rest)) < keyLen {
			return rec, chunk, fmt.Errorf("serve: batch key truncated: %d bytes promised, %d present", keyLen, len(rest))
		}
		rec.key = string(rest[:keyLen])
		rest = rest[keyLen:]
		malformed, k := binary.Uvarint(rest)
		if k <= 0 {
			return rec, chunk, fmt.Errorf("serve: batch malformed count unreadable")
		}
		rest = rest[k:]
		if malformed > uint64(1<<31) {
			return rec, chunk, fmt.Errorf("serve: implausible malformed count %d", malformed)
		}
		rec.malformed = int(malformed)
	}
	var err error
	rec.votes, chunk, rec.dropped, err = decodeVotes(chunk, rest, n, m)
	return rec, chunk, err
}

// decodeVotes parses an appendVotes list back into votes for n objects
// and m workers, appending them to chunk, and returns them along with the
// extended chunk. Structural damage (impossible counts, short data,
// trailing bytes) is an error; individual votes outside the universe are
// dropped and counted, so a journal written under a larger universe
// degrades rather than poisons state. When chunk lacks room, a fresh chunk
// of chunk's capacity (or of the vote count, if larger) replaces it: votes
// already in chunk never move, because earlier records' votes point there.
func decodeVotes(chunk []crowd.Packed, data []byte, n, m int) (votes, grown []crowd.Packed, dropped int, err error) {
	count, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, chunk, 0, fmt.Errorf("serve: batch count unreadable")
	}
	// Each vote takes at least 4 bytes; a count promising more than the
	// payload could hold is corruption, and bounding it caps allocation.
	if count > uint64(len(data)/4) {
		return nil, chunk, 0, fmt.Errorf("serve: batch count %d exceeds payload capacity %d", count, len(data)/4)
	}
	if cap(chunk)-len(chunk) < int(count) {
		chunk = make([]crowd.Packed, 0, max(int(count), cap(chunk)))
	}
	start := len(chunk)
	rest := data[off:]
	for i := uint64(0); i < count; i++ {
		v, next, err := crowd.ReadVote(rest)
		if err != nil {
			return nil, chunk, 0, fmt.Errorf("serve: batch vote %d at byte %d: %w", i, len(data)-len(rest), err)
		}
		rest = next
		if crowd.Classify(v, n, m) != crowd.DefectNone {
			dropped++
			continue
		}
		chunk = append(chunk, crowd.Pack(v))
	}
	if len(rest) != 0 {
		return nil, chunk, 0, fmt.Errorf("serve: batch has %d trailing bytes", len(rest))
	}
	return chunk[start:len(chunk):len(chunk)], chunk, dropped, nil
}
