package journal

// Reader gives the replication layer sequential read access to a live
// journal: the leader streams its own records to warm-standby followers
// from an arbitrary start sequence, tailing the active segment as new
// appends land. Reads are safe concurrently with Append because a record's
// bytes are fully written to the segment file before the sequence counter
// that admits it is bumped (both happen under the journal mutex), so any
// sequence below the committed NextSeq is completely on disk — or at least
// completely in the page cache this same process reads back.

import (
	"errors"
	"fmt"
	"io"
	"os"

	"crowdrank/internal/record"
)

// Reader walks a journal's records in sequence order, starting from a
// caller-chosen sequence number and tailing the active segment. It is NOT
// safe for concurrent use by multiple goroutines; open one Reader per
// stream. Close releases the open segment handle.
type Reader struct {
	j      *Journal
	seq    uint64 // sequence of the next record Next will return
	f      *os.File
	fIndex uint64 // segment index f points into
	offset int64  // next read offset in f
	closed bool
}

// OpenReader positions a new Reader at sequence from. A from below the
// oldest surviving record fails with ErrSeqGap (the records were compacted
// away; the caller must bootstrap from a snapshot instead); a from beyond
// NextSeq is refused outright. from == NextSeq is valid and simply tails.
func (j *Journal) OpenReader(from uint64) (*Reader, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, fmt.Errorf("journal: reader on closed journal %s", j.dir)
	}
	if from > j.nextSeq {
		return nil, fmt.Errorf("journal: reader start %d is beyond next sequence %d", from, j.nextSeq)
	}
	if len(j.segments) > 0 && from < j.segments[0].firstSeq {
		return nil, fmt.Errorf("journal: records before seq %d were compacted, reader wants seq %d: %w",
			j.segments[0].firstSeq, from, ErrSeqGap)
	}
	return &Reader{j: j, seq: from}, nil
}

// Seq returns the sequence number of the record the next Next call will
// return (equivalently: one past the last record already returned).
func (r *Reader) Seq() uint64 { return r.seq }

// locate finds (under the journal mutex) the live segment holding seq and
// returns a copy of its metadata plus the committed next sequence.
func (r *Reader) locate(seq uint64) (segment, uint64, error) {
	j := r.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return segment{}, 0, fmt.Errorf("journal: read from closed journal %s", j.dir)
	}
	if seq >= j.nextSeq {
		return segment{}, j.nextSeq, io.EOF
	}
	if seq < j.segments[0].firstSeq {
		return segment{}, j.nextSeq, fmt.Errorf("journal: seq %d was compacted away under the reader: %w", seq, ErrSeqGap)
	}
	for _, s := range j.segments {
		if seq >= s.firstSeq && seq < s.firstSeq+uint64(s.records) {
			return s, j.nextSeq, nil
		}
	}
	// seq < nextSeq but no live segment holds it: cannot happen while the
	// segment invariants hold (contiguous firstSeq ranges ending at nextSeq).
	return segment{}, j.nextSeq, fmt.Errorf("journal: no live segment holds seq %d", seq)
}

// openSegment opens seg and skips forward to the record at seq, leaving
// r.f/r.offset positioned to read it.
func (r *Reader) openSegment(seg segment, seq uint64) error {
	if r.f != nil {
		//lint:ignore errcheck the finished segment was only read; a close error cannot lose data
		_ = r.f.Close()
		r.f = nil
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("journal: reader opening segment %s: %w", seg.path, err)
	}
	// Open's scan validated the segment header, so records start right
	// after it. Skip records below seq by walking headers without reading
	// payloads.
	offset := int64(segHeaderSize)
	for at := seg.firstSeq; at < seq; at++ {
		h, err := headerAt(f, offset)
		if err != nil {
			//lint:ignore errcheck error-path cleanup of a read-only handle; the skip error is already being returned
			_ = f.Close()
			return fmt.Errorf("journal: reader skipping to seq %d in %s: %w", seq, seg.path, err)
		}
		offset += record.HeaderSize + int64(h.Len)
	}
	r.f, r.fIndex, r.offset = f, seg.index, offset
	return nil
}

// headerAt reads and parses the record header at offset off of f.
func headerAt(f *os.File, off int64) (record.Header, error) {
	var hdr [record.HeaderSize]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return record.Header{}, err
	}
	return record.ParseHeader(hdr[:])
}

// Next returns the payload and sequence number of the next record. A
// Reader that has caught up with the journal returns io.EOF — poll again
// after more appends. A start position that fell behind compaction returns
// an error matching ErrSeqGap. Payloads are freshly allocated; callers own
// them.
func (r *Reader) Next() ([]byte, uint64, error) {
	if r.closed {
		return nil, 0, fmt.Errorf("journal: read from closed reader")
	}
	seg, _, err := r.locate(r.seq)
	if err != nil {
		return nil, 0, err
	}
	if r.f == nil || r.fIndex != seg.index {
		if err := r.openSegment(seg, r.seq); err != nil {
			return nil, 0, err
		}
	}
	h, err := headerAt(r.f, r.offset)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: reader at seq %d: record header: %w", r.seq, err)
	}
	payload := make([]byte, h.Len)
	if _, err := r.f.ReadAt(payload, r.offset+record.HeaderSize); err != nil {
		return nil, 0, fmt.Errorf("journal: reader at seq %d: record payload: %w", r.seq, err)
	}
	if err := h.Check(payload); err != nil {
		return nil, 0, fmt.Errorf("journal: reader at seq %d: %w", r.seq, err)
	}
	seq := r.seq
	r.seq++
	r.offset += record.HeaderSize + int64(h.Len)
	return payload, seq, nil
}

// Close releases the reader's segment handle. The journal itself is not
// affected. Close is idempotent.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("journal: closing reader segment handle: %w", err)
	}
	return nil
}

// FirstSeq returns the sequence number of the oldest record still on disk
// (NextSeq when the journal is empty). Records below it were compacted
// away; a replication stream asked to start below FirstSeq must bootstrap
// its follower from a snapshot instead.
func (j *Journal) FirstSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.segments) == 0 {
		return j.nextSeq
	}
	return j.segments[0].firstSeq
}

// Poison forces the journal into the permanently-failed append state that
// a disk fault would cause, with cause recorded as the root cause. The
// replication layer uses it to fence a deposed leader: once a node learns
// a higher epoch exists, every local append must fail before it can be
// acknowledged, exactly as if the disk had gone bad ("fsyncgate"
// semantics). Poisoning an already-poisoned journal keeps the original
// cause.
func (j *Journal) Poison(cause error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poison == nil {
		j.poison = cause
	}
}
