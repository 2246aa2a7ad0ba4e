// Package journal implements the ranking daemon's write-ahead log: a
// directory of rotated, append-only segment files of checksummed,
// length-prefixed records that makes acknowledged vote batches durable
// across crashes — and whose recovery cost is bounded by compaction
// rather than proportional to lifetime ingest.
//
// The paper's setting makes the log load-bearing: a non-interactive round
// spends the whole budget B in one posting, so votes the crowd already
// returned cannot be re-bought. The daemon therefore acknowledges an ingest
// only after its batch is on disk, and recovery replays the log to rebuild
// exactly the acknowledged state.
//
// # On-disk format
//
// A journal is a directory holding segment files named journal.000001,
// journal.000002, ... (indices strictly increase; compaction deletes a
// prefix and never renames). Each segment is:
//
//	8 bytes   magic + version ("CRWDSEG\x01")
//	8 bytes   sequence number of the segment's first record, little-endian
//	repeated records:
//	  4 bytes  payload length, little-endian uint32
//	  4 bytes  CRC32-Castagnoli of the payload, little-endian
//	  N bytes  payload (opaque to this package)
//
// Records carry implicit global sequence numbers 0, 1, 2, ... assigned at
// append time; the per-segment first-sequence header lets recovery resume
// mid-stream after older segments have been compacted away, and lets Open
// detect a gap (missing segment) instead of silently replaying a hole.
//
// The record framing is package record's, shared with the replication
// stream. Open refuses the retired version-1 format, a single
// "CRWDWAL\x01" file, and leaves it untouched.
//
// Replay walks segments in index order and records from each header until
// the segment ends. A record that cannot be read in full, claims an
// implausible length, or fails its checksum is a torn tail: the crash
// interrupted an append. Replay stops at the first such record, reports
// it, truncates the segment back to the last valid boundary, and deletes
// any later segments so the damage cannot masquerade as data on later
// opens. Corruption is never silently replayed and never panics — a
// property fuzzed by FuzzJournalReplay in internal/serve.
//
// # Poisoning ("fsyncgate" semantics)
//
// A failed fsync may mean the kernel dropped dirty pages and cleared the
// error: retrying the fsync can succeed while the data is gone. After any
// failed write or sync on the append path, the journal therefore enters a
// permanently poisoned state — every subsequent Append and Sync fails with
// an error matching ErrPoisoned — instead of retrying and lying about
// durability. The daemon surfaces this as a not-ready 503. The Faults seam
// in Options exists to inject exactly these failures under test.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdrank/internal/obs"
	"crowdrank/internal/record"
)

// segMagic identifies a crowdrank journal segment; the final byte is the
// format version.
var segMagic = []byte("CRWDSEG\x01")

// segHeaderSize is the segment prefix: 8-byte magic + 8-byte first
// sequence number.
const segHeaderSize = 16

// segPrefix names segment files inside the journal directory.
const segPrefix = "journal."

// DefaultSegmentBytes is the rotation threshold: once the active segment
// reaches it, the next append seals it and starts a fresh segment.
const DefaultSegmentBytes = 64 << 20

// ErrPoisoned marks a journal that has seen a failed write or fsync on its
// append path. Durability can no longer be promised (the kernel may have
// dropped the dirty pages that failed to sync), so every subsequent Append
// and Sync fails with an error matching this sentinel.
var ErrPoisoned = errors.New("journal poisoned by a prior disk fault")

// ErrSeqGap marks an Open that found the on-disk segments starting after
// the requested replay position: records in between are gone (compacted or
// deleted), so the caller's state cannot be rebuilt from this journal
// alone.
var ErrSeqGap = errors.New("journal segments do not cover the requested replay position")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives power loss. The default, and what the daemon uses before
	// acking an ingest.
	SyncAlways SyncPolicy = iota
	// SyncOS leaves flushing to the OS page cache: records survive a
	// process crash (SIGKILL) but not power loss. Sync can still be called
	// explicitly; Close always syncs.
	SyncOS
)

// String names the policy for flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOS:
		return "os"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Faults is the fault-injection seam: when non-nil hooks are installed,
// they run in place of (Write) or before (Sync) the real syscall on the
// append path. Production code leaves this nil; the chaos and poisoning
// tests use it to simulate short writes and fsync failures without
// needing a faulty disk.
type Faults struct {
	// Write, when non-nil, is consulted before each segment data write.
	// It returns how many prefix bytes of buf actually reach the file and
	// an error; (len(buf), nil) behaves like a healthy disk. A short
	// count with a non-nil error simulates a torn write that the kernel
	// surfaced.
	Write func(buf []byte) (int, error)
	// Sync, when non-nil, is consulted before each fsync of segment data;
	// a non-nil error simulates a failed fsync (and the real fsync is
	// skipped — after a sync failure the page state is unknowable).
	Sync func() error
}

// Options tunes Open. The zero value is usable: fsync on every append and
// the default segment size.
type Options struct {
	// Sync selects the append durability policy.
	Sync SyncPolicy
	// SegmentBytes is the rotation threshold; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// ReplayFrom skips records with sequence numbers below it during
	// Open's replay (they are covered by a snapshot the caller already
	// loaded). Open fails with ErrSeqGap if the surviving segments start
	// after ReplayFrom.
	ReplayFrom uint64
	// Faults injects write/sync failures for tests; nil means a healthy
	// disk.
	Faults *Faults
	// Metrics receives append/fsync latency and segment lifecycle counts.
	// The zero value disables collection: every handle in Metrics is
	// nil-safe, so unwired journals pay only a nil check.
	Metrics Metrics
}

// Metrics is the journal's observability hook: the owner (internal/serve)
// registers these on its registry and passes them in via Options. All
// fields are optional — nil obs handles discard observations.
type Metrics struct {
	// AppendSeconds observes the full latency of each successful Append,
	// including the fsync under SyncAlways.
	AppendSeconds *obs.Histogram
	// FsyncSeconds observes every successful fsync of segment data
	// (per-append syncs, seals before rotation, explicit Sync calls).
	FsyncSeconds *obs.Histogram
	// Appends counts successful appends; Rotations sealed segments;
	// SegmentsCompacted segment files deleted by CompactThrough.
	Appends           *obs.Counter
	Rotations         *obs.Counter
	SegmentsCompacted *obs.Counter
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// ReplayStats describes what Open found in an existing journal.
type ReplayStats struct {
	// Records is the number of valid records replayed through the
	// callback; SkippedRecords counts valid records below ReplayFrom that
	// were scanned but not replayed (a snapshot already covers them).
	Records        int
	SkippedRecords int
	// Segments is the number of live segment files scanned.
	Segments int
	// FirstSeq is the sequence number of the first record still on disk;
	// NextSeq is the sequence the next append will get. NextSeq-FirstSeq
	// is the number of live records.
	FirstSeq uint64
	NextSeq  uint64
	// TruncatedBytes counts bytes cut from a torn or corrupt tail
	// (including whole later segments dropped after a corrupt record);
	// 0 means every segment ended exactly on a record boundary.
	TruncatedBytes int64
	// DroppedSegments counts segment files deleted because they followed
	// a corrupt record.
	DroppedSegments int
	// TailError describes why the tail was rejected; empty when the
	// journal was clean.
	TailError string
}

// Truncated reports whether Open had to cut a damaged tail.
func (s ReplayStats) Truncated() bool { return s.TruncatedBytes > 0 }

// String summarizes the replay for startup logs. The zero value reads
// "replayed 0 records from 0 segments (clean)".
func (s ReplayStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d records from %d segments", s.Records, s.Segments)
	if s.SkippedRecords > 0 {
		fmt.Fprintf(&b, " (skipped %d snapshot-covered)", s.SkippedRecords)
	}
	if s.Truncated() {
		fmt.Fprintf(&b, ", truncated %d bytes", s.TruncatedBytes)
		if s.DroppedSegments > 0 {
			fmt.Fprintf(&b, " and dropped %d segments", s.DroppedSegments)
		}
		fmt.Fprintf(&b, ": %s", s.TailError)
	} else {
		b.WriteString(" (clean)")
	}
	return b.String()
}

// segment is one live segment file's metadata. Only the last segment is
// open for appends; earlier ones are sealed and immutable.
type segment struct {
	index    uint64 // numeric filename suffix
	path     string
	firstSeq uint64
	records  int
	size     int64
}

// covered reports whether every record in the segment is below seq.
func (s segment) covered(seq uint64) bool {
	return s.firstSeq+uint64(s.records) <= seq
}

// Journal is an open write-ahead log. Append is safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	dir      string
	dirFile  *os.File // held open for directory fsyncs
	opts     Options
	segments []segment // ascending by index; last is active
	active   *os.File
	nextSeq  uint64
	size     int64 // total bytes across live segments
	poison   error // root cause; non-nil once poisoned
	closed   bool
	// ready is handed to readers that caught up (see Reader.Ready) and
	// closed by the next Append, Poison or Close; nil while nobody waits.
	ready chan struct{}
}

// Open opens or creates the journal directory at dir, replays every valid
// record at or past opts.ReplayFrom through fn (which may be nil),
// truncates any torn tail, and leaves the journal positioned for appends.
// The returned stats describe the replay even when fn is nil.
//
// A regular file at dir (such as a version-1 single-file journal) is
// refused and left untouched. A directory that is not writable is refused
// up front — the daemon must fail at startup, not on its first ingest. A
// non-nil error from fn aborts the open with that error and leaves the
// files untouched. A segment that does not start with a journal magic is
// refused outright — it is some other file, not a torn journal.
func Open(dir string, opts Options, fn func(payload []byte) error) (*Journal, ReplayStats, error) {
	var stats ReplayStats
	if info, err := os.Stat(dir); err == nil && !info.IsDir() {
		return nil, stats, fmt.Errorf("journal: %s is a file, not a journal directory (single-file version-1 journals are not read)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("journal: creating directory %s: %w", dir, err)
	}
	if err := probeWritable(dir); err != nil {
		return nil, stats, err
	}
	dirFile, err := os.Open(dir)
	if err != nil {
		return nil, stats, fmt.Errorf("journal: opening directory %s: %w", dir, err)
	}
	j := &Journal{dir: dir, dirFile: dirFile, opts: opts}
	stats, err = j.scanSegments(fn)
	if err != nil {
		//lint:ignore errcheck error-path cleanup of a read-only directory handle; the scan error is already being returned
		_ = dirFile.Close()
		return nil, stats, err
	}
	if err := j.openActive(&stats); err != nil {
		//lint:ignore errcheck error-path cleanup of a read-only directory handle; the open error is already being returned
		_ = dirFile.Close()
		return nil, stats, err
	}
	stats.NextSeq = j.nextSeq
	return j, stats, nil
}

// probeWritable proves the journal directory accepts file creation now,
// so a read-only volume fails the daemon at startup instead of on the
// first acknowledged ingest.
func probeWritable(dir string) error {
	probe := filepath.Join(dir, ".probe.tmp")
	f, err := os.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: directory %s is not writable: %w", dir, err)
	}
	_, writeErr := f.Write([]byte{1})
	closeErr := f.Close()
	removeErr := os.Remove(probe)
	if writeErr != nil {
		return fmt.Errorf("journal: directory %s is not writable: %w", dir, writeErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: directory %s probe close: %w", dir, closeErr)
	}
	if removeErr != nil {
		return fmt.Errorf("journal: directory %s probe cleanup: %w", dir, removeErr)
	}
	return nil
}

// segName formats a segment filename for index.
func segName(index uint64) string {
	return fmt.Sprintf("%s%06d", segPrefix, index)
}

// listSegments returns the segment files under dir, ascending by index.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading directory %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimPrefix(name, segPrefix), 10, 64)
		if err != nil {
			continue // not a segment (e.g. a stray journal.tmp)
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("journal: stat %s: %w", name, err)
		}
		segs = append(segs, segment{index: idx, path: filepath.Join(dir, name), size: info.Size()})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].index < segs[b].index })
	return segs, nil
}

// scanSegments replays every live segment in order, truncating the first
// damaged record and deleting everything after it. It populates
// j.segments, j.nextSeq, and j.size.
func (j *Journal) scanSegments(fn func([]byte) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(j.dir)
	if err != nil {
		return stats, err
	}
	expect := uint64(0) // next segment must start here; first segment sets it
	damaged := -1       // index into segs of the first damaged segment
	// One read buffer serves every segment.
	br := bufio.NewReaderSize(nil, scanBufferSize)
	for i := range segs {
		seg := &segs[i]
		res, err := scanSegment(br, seg.path, seg.size, i == 0, expect, j.opts.ReplayFrom, fn)
		if err != nil {
			return stats, err
		}
		if i == 0 {
			stats.FirstSeq = res.firstSeq
			if j.opts.ReplayFrom < res.firstSeq {
				return stats, fmt.Errorf("journal: %s starts at seq %d, replay needs seq %d: %w",
					seg.path, res.firstSeq, j.opts.ReplayFrom, ErrSeqGap)
			}
		}
		seg.firstSeq = res.firstSeq
		seg.records = res.records
		stats.Records += res.replayed
		stats.SkippedRecords += res.skipped
		stats.Segments++
		expect = res.firstSeq + uint64(res.records)
		if res.tailError != "" {
			stats.TailError = fmt.Sprintf("%s: %s", filepath.Base(seg.path), res.tailError)
			stats.TruncatedBytes += seg.size - res.validBytes
			if err := truncateSegment(seg, res.validBytes); err != nil {
				return stats, err
			}
			damaged = i
			break
		}
	}
	if damaged >= 0 {
		// Records past a damaged one cannot be trusted to be the ones that
		// were acknowledged; drop the later segments and report every byte.
		for _, seg := range segs[damaged+1:] {
			stats.TruncatedBytes += seg.size
			stats.DroppedSegments++
			if err := os.Remove(seg.path); err != nil {
				return stats, fmt.Errorf("journal: dropping post-corruption segment %s: %w", seg.path, err)
			}
		}
		segs = segs[:damaged+1]
		if err := j.syncDir(); err != nil {
			return stats, err
		}
	}
	// A fully-truncated trailing segment (a crash landed between creating
	// the file and completing its header, and repair removed it) holds no
	// records; drop it from the live set so the previous segment becomes
	// active again. The file itself is already gone — truncateSegment
	// removes a segment with no valid prefix — so only tolerate
	// already-removed paths here.
	for len(segs) > 1 {
		last := segs[len(segs)-1]
		if last.records > 0 || last.size > 0 {
			break
		}
		if err := os.Remove(last.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return stats, fmt.Errorf("journal: removing empty trailing segment %s: %w", last.path, err)
		}
		stats.Segments--
		segs = segs[:len(segs)-1]
	}
	j.segments = segs
	j.nextSeq = expect
	for _, s := range segs {
		j.size += s.size
	}
	if len(segs) == 0 {
		j.nextSeq = j.opts.ReplayFrom
		stats.FirstSeq = j.opts.ReplayFrom
	}
	return stats, nil
}

// segScan is the per-segment result of scanSegment.
type segScan struct {
	firstSeq   uint64
	records    int
	replayed   int
	skipped    int
	validBytes int64
	tailError  string
}

// scanBufferSize is the read buffer scanSegments reads every segment
// through, so a record costs no read syscall of its own.
const scanBufferSize = 64 << 10

// scanSegment validates one segment's header and walks its records,
// invoking fn on each valid payload at or past replayFrom. first marks
// the journal's first live segment (the only place an unconstrained
// firstSeq is legal); expect is the sequence the segment must start at
// otherwise. The file is read through br, which scanSegment resets to it.
func scanSegment(br *bufio.Reader, path string, size int64, first bool, expect, replayFrom uint64, fn func([]byte) error) (segScan, error) {
	var res segScan
	f, err := os.Open(path)
	if err != nil {
		return res, fmt.Errorf("journal: open segment %s: %w", path, err)
	}
	//lint:ignore errcheck the segment is only read during the scan; a close error cannot lose data
	defer func() { _ = f.Close() }()
	br.Reset(f)

	header := make([]byte, segHeaderSize)
	n, err := io.ReadFull(br, header)
	magic := header[:min(n, len(segMagic))]
	// A header prefix torn mid-write (a crash while creating the segment)
	// is repairable damage; anything else in the first segment means this
	// is not a journal at all and must be refused, never "repaired".
	torn := n < segHeaderSize && bytes.HasPrefix(segMagic, magic)
	switch {
	case err == nil && bytes.Equal(magic, segMagic):
		res.firstSeq = binary.LittleEndian.Uint64(header[len(segMagic):])
		res.validBytes = segHeaderSize
		if !first && res.firstSeq != expect {
			res.tailError = fmt.Sprintf("segment starts at seq %d, expected %d", res.firstSeq, expect)
			res.firstSeq = expect
			res.validBytes = 0
			return res, nil
		}
	case first && size > 0 && !torn:
		return res, fmt.Errorf("journal: %s starts %q, not the segment magic %q: not a crowdrank journal", path, magic, segMagic)
	default:
		// A short or foreign header on a later segment — or a torn header
		// anywhere — is a crash mid-rotation: no records exist yet, so the
		// file is removed and recreated rather than replayed.
		res.firstSeq = expect
		res.validBytes = 0
		res.tailError = fmt.Sprintf("short or foreign segment header (%d bytes)", n)
		return res, nil
	}

	offset := res.validBytes
	hdr := make([]byte, record.HeaderSize)
	for {
		n, err := io.ReadFull(br, hdr)
		if err == io.EOF {
			break // clean end on a record boundary
		}
		if err != nil {
			res.tailError = fmt.Sprintf("truncated record header at offset %d (%d of %d bytes)", offset, n, record.HeaderSize)
			break
		}
		h, err := record.ParseHeader(hdr)
		if err != nil {
			res.tailError = fmt.Sprintf("%v at offset %d", err, offset)
			break
		}
		if offset+record.HeaderSize+int64(h.Len) > size {
			res.tailError = fmt.Sprintf("truncated record payload at offset %d (%d bytes promised, %d in file)",
				offset, h.Len, size-offset-record.HeaderSize)
			break
		}
		payload := make([]byte, h.Len)
		if _, err := io.ReadFull(br, payload); err != nil {
			res.tailError = fmt.Sprintf("short read of record payload at offset %d: %v", offset, err)
			break
		}
		if err := h.Check(payload); err != nil {
			res.tailError = fmt.Sprintf("%v at offset %d", err, offset)
			break
		}
		seq := res.firstSeq + uint64(res.records)
		if seq < replayFrom {
			res.skipped++
		} else if fn != nil {
			if err := fn(payload); err != nil {
				return res, fmt.Errorf("journal: replay callback at seq %d: %w", seq, err)
			}
			res.replayed++
		} else {
			res.replayed++
		}
		res.records++
		offset += record.HeaderSize + int64(h.Len)
		res.validBytes = offset
	}
	if res.tailError == "" && offset < size {
		res.tailError = "trailing bytes past the last valid record"
	}
	return res, nil
}

// truncateSegment persists a torn-tail repair: the file is cut back to
// the last valid boundary (or removed outright when nothing valid
// remains, e.g. a torn rotation) and the change is fsynced.
func truncateSegment(seg *segment, validBytes int64) error {
	if validBytes <= 0 {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("journal: removing torn segment %s: %w", seg.path, err)
		}
		seg.size = 0
		return nil
	}
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("journal: reopening %s for truncation: %w", seg.path, err)
	}
	truncErr := f.Truncate(validBytes)
	syncErr := f.Sync()
	closeErr := f.Close()
	if truncErr != nil {
		return fmt.Errorf("journal: truncating torn tail of %s: %w", seg.path, truncErr)
	}
	if syncErr != nil {
		return fmt.Errorf("journal: syncing after truncation of %s: %w", seg.path, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: closing %s after truncation: %w", seg.path, closeErr)
	}
	seg.size = validBytes
	return nil
}

// openActive positions the journal for appends: it opens the last
// segment, or creates segment 1 (first seq = ReplayFrom) when the
// directory holds none. A torn last segment whose repair removed the file
// is recreated fresh.
func (j *Journal) openActive(stats *ReplayStats) error {
	if len(j.segments) == 0 {
		if err := j.createSegment(1, j.nextSeq); err != nil {
			return err
		}
		stats.Segments = 1
		return nil
	}
	last := j.segments[len(j.segments)-1]
	if last.size == 0 {
		// Repair removed the torn file; recreate it with the right header.
		j.segments = j.segments[:len(j.segments)-1]
		return j.createSegment(last.index, j.nextSeq)
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: opening active segment %s: %w", last.path, err)
	}
	if _, err := f.Seek(last.size, io.SeekStart); err != nil {
		//lint:ignore errcheck error-path cleanup: nothing was written and the seek error is already being returned
		_ = f.Close()
		return fmt.Errorf("journal: seeking to append position in %s: %w", last.path, err)
	}
	j.active = f
	return nil
}

// createSegment writes and persists a fresh segment file and makes it the
// active one. Callers must hold j.mu (or be in Open, before the journal
// escapes).
func (j *Journal) createSegment(index, firstSeq uint64) error {
	path := filepath.Join(j.dir, segName(index))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment %s: %w", path, err)
	}
	header := make([]byte, segHeaderSize)
	copy(header, segMagic)
	binary.LittleEndian.PutUint64(header[len(segMagic):], firstSeq)
	if _, err := f.Write(header); err != nil {
		//lint:ignore errcheck error-path cleanup: the segment is abandoned and the write error is already being returned
		_ = f.Close()
		return fmt.Errorf("journal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		//lint:ignore errcheck error-path cleanup: the segment is abandoned and the sync error is already being returned
		_ = f.Close()
		return fmt.Errorf("journal: syncing segment header: %w", err)
	}
	if err := j.syncDir(); err != nil {
		//lint:ignore errcheck error-path cleanup: the segment is abandoned and the dir-sync error is already being returned
		_ = f.Close()
		return err
	}
	j.active = f
	j.segments = append(j.segments, segment{index: index, path: path, firstSeq: firstSeq, size: segHeaderSize})
	j.size += segHeaderSize
	return nil
}

// syncDir fsyncs the journal directory so file creations and deletions
// are themselves durable.
func (j *Journal) syncDir() error {
	if err := j.dirFile.Sync(); err != nil {
		return fmt.Errorf("journal: syncing directory %s: %w", j.dir, err)
	}
	return nil
}

// poisonLocked records the journal's first disk fault; all later appends
// and syncs fail with ErrPoisoned. Callers must hold j.mu.
func (j *Journal) poisonLocked(op string, cause error) error {
	if j.poison == nil {
		j.poison = fmt.Errorf("%s: %w", op, cause)
	}
	return fmt.Errorf("journal: %s: %w (%w)", op, cause, ErrPoisoned)
}

// writeActive writes buf to the active segment through the fault seam.
// Any failure — including a short write, whose torn bytes the seam still
// lands on disk to mimic a real partial write — poisons the journal.
func (j *Journal) writeActive(buf []byte) error {
	if f := j.opts.Faults; f != nil && f.Write != nil {
		n, err := f.Write(buf)
		if err != nil {
			if n > 0 && n <= len(buf) {
				_, _ = j.active.Write(buf[:n])
				j.size += int64(n)
				j.segments[len(j.segments)-1].size += int64(n)
			}
			return j.poisonLocked("append write", err)
		}
		if n < len(buf) {
			_, _ = j.active.Write(buf[:n])
			j.size += int64(n)
			j.segments[len(j.segments)-1].size += int64(n)
			return j.poisonLocked("append write", fmt.Errorf("short write (%d of %d bytes)", n, len(buf)))
		}
	}
	n, err := j.active.Write(buf)
	j.size += int64(n)
	j.segments[len(j.segments)-1].size += int64(n)
	if err != nil {
		return j.poisonLocked("append write", err)
	}
	return nil
}

// syncActive fsyncs the active segment through the fault seam. A failure
// poisons the journal: a failed fsync may have silently dropped the dirty
// pages, so retrying and acknowledging would lie about durability.
func (j *Journal) syncActive(op string) error {
	if f := j.opts.Faults; f != nil && f.Sync != nil {
		if err := f.Sync(); err != nil {
			return j.poisonLocked(op, err)
		}
	}
	start := time.Now()
	if err := j.active.Sync(); err != nil {
		return j.poisonLocked(op, err)
	}
	j.opts.Metrics.FsyncSeconds.ObserveDuration(time.Since(start))
	return nil
}

// Append writes one record and, under SyncAlways, fsyncs before
// returning; a nil error means the payload is durable and may be
// acknowledged, and seq is the record's global sequence number. Once the
// journal is poisoned by a disk fault every Append fails with
// ErrPoisoned.
func (j *Journal) Append(payload []byte) (seq uint64, err error) {
	start := time.Now()
	defer func() {
		if err == nil {
			j.opts.Metrics.Appends.Inc()
			j.opts.Metrics.AppendSeconds.ObserveDuration(time.Since(start))
		}
	}()
	if len(payload) == 0 {
		return 0, fmt.Errorf("journal: refusing empty payload")
	}
	if len(payload) > record.MaxPayload {
		return 0, fmt.Errorf("journal: payload of %d bytes exceeds record cap %d", len(payload), record.MaxPayload)
	}
	buf := make([]byte, 0, record.HeaderSize+len(payload))
	buf = append(record.AppendHeader(buf, payload), payload...)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("journal: append to closed journal %s", j.dir)
	}
	if j.poison != nil {
		return 0, fmt.Errorf("journal: append refused: %w (%w)", ErrPoisoned, j.poison)
	}
	//lint:ignore lockcheck durable-before-ack: the write and fsync must complete under j.mu so record order equals lock order and a sequence number is never handed out for an unsynced record
	if err := j.maybeRotateLocked(); err != nil {
		return 0, err
	}
	if err := j.writeActive(buf); err != nil {
		return 0, err
	}
	j.segments[len(j.segments)-1].records++
	seq = j.nextSeq
	j.nextSeq++
	j.wakeLocked() // readable now; a woken reader gets j.mu only after the sync below
	if j.opts.Sync == SyncAlways {
		if err := j.syncActive("fsync after append"); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// wakeLocked wakes every reader waiting on Ready. Callers must hold j.mu.
func (j *Journal) wakeLocked() {
	if j.ready != nil {
		close(j.ready)
		j.ready = nil
	}
}

// maybeRotateLocked seals the active segment and starts a fresh one when
// the active segment has reached the rotation threshold. The sealed
// segment is always fsynced (regardless of policy) so compaction and
// recovery can trust sealed segments under SyncOS too.
func (j *Journal) maybeRotateLocked() error {
	cur := j.segments[len(j.segments)-1]
	if cur.size < j.opts.segmentBytes() || cur.records == 0 {
		return nil
	}
	return j.rotateLocked()
}

// rotateLocked seals the active segment and opens the next one.
func (j *Journal) rotateLocked() error {
	if err := j.syncActive("fsync sealing segment"); err != nil {
		return err
	}
	if err := j.active.Close(); err != nil {
		return j.poisonLocked("closing sealed segment", err)
	}
	j.active = nil
	next := j.segments[len(j.segments)-1].index + 1
	if err := j.createSegment(next, j.nextSeq); err != nil {
		// Failing to open the next segment is an append-path disk fault:
		// the journal has no file to write to.
		return j.poisonLocked("rotating segment", err)
	}
	j.opts.Metrics.Rotations.Inc()
	return nil
}

// CompactThrough deletes every sealed segment whose records all fall
// below seq — typically the sequence a snapshot just covered. When seq
// covers the active segment too, the journal rotates first so the sealed
// file can go; recovery then starts from an (almost) empty journal plus
// the snapshot. It returns the number of segment files deleted.
func (j *Journal) CompactThrough(seq uint64) (deleted int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("journal: compacting closed journal %s", j.dir)
	}
	if j.poison != nil {
		return 0, fmt.Errorf("journal: compaction refused: %w (%w)", ErrPoisoned, j.poison)
	}
	if seq > j.nextSeq {
		seq = j.nextSeq
	}
	if last := j.segments[len(j.segments)-1]; last.covered(seq) && last.records > 0 {
		//lint:ignore lockcheck compaction must rotate and delete under j.mu so concurrent appends never land in a segment being removed; the daemon serializes compaction behind snapshots anyway
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	// Delete oldest-first so a crash mid-compaction always leaves a
	// contiguous suffix of segments on disk.
	for len(j.segments) > 1 && j.segments[0].covered(seq) {
		victim := j.segments[0]
		if err := os.Remove(victim.path); err != nil {
			return deleted, fmt.Errorf("journal: deleting compacted segment %s: %w", victim.path, err)
		}
		j.size -= victim.size
		j.segments = j.segments[1:]
		deleted++
	}
	if deleted > 0 {
		if err := j.syncDir(); err != nil {
			return deleted, err
		}
		j.opts.Metrics.SegmentsCompacted.Add(uint64(deleted))
	}
	return deleted, nil
}

// Sync forces buffered appends to stable storage regardless of policy.
// Like Append, it fails with ErrPoisoned once the journal has seen a disk
// fault — retrying a failed fsync cannot resurrect dropped pages.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: sync of closed journal %s", j.dir)
	}
	if j.poison != nil {
		return fmt.Errorf("journal: sync refused: %w (%w)", ErrPoisoned, j.poison)
	}
	//lint:ignore lockcheck the fsync must run under j.mu so a concurrent append cannot slip between the write and the sync it relies on
	return j.syncActive("fsync")
}

// Close syncs and closes the journal. Further appends fail. Close is
// idempotent. A poisoned journal closes without the final sync — the
// fault was already reported on the operation that hit it, and a retry
// could only lie.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.wakeLocked()
	var syncErr error
	if j.poison == nil && j.active != nil {
		//lint:ignore lockcheck the final fsync runs under j.mu so Close linearizes with in-flight appends; after it, closed=true makes them fail fast
		syncErr = j.syncActive("final sync")
	}
	var closeErr error
	if j.active != nil {
		closeErr = j.active.Close()
		j.active = nil
	}
	dirErr := j.dirFile.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: final sync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: close: %w", closeErr)
	}
	if dirErr != nil {
		return fmt.Errorf("journal: closing directory handle: %w", dirErr)
	}
	return nil
}

// Poisoned returns the root-cause disk fault that poisoned the journal,
// or nil while it is healthy.
func (j *Journal) Poisoned() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.poison
}

// Dir returns the journal's directory path.
func (j *Journal) Dir() string { return j.dir }

// Size returns the total bytes across live segments (headers included).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Segments returns the number of live segment files.
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segments)
}

// NextSeq returns the sequence number the next appended record will get —
// equivalently, the number of records ever appended to this journal.
func (j *Journal) NextSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}
