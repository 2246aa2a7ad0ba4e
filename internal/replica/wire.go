package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"crowdrank/internal/record"
)

// Stream wire format. A replication stream is a chunked HTTP response
// carrying a sequence of frames, each introduced by a one-byte kind:
//
//	'R' (record):    uint64 seq | uint32 len | uint32 crc32c | payload
//	'H' (heartbeat): uint64 leaderNextSeq | uint64 epoch
//
// All integers little-endian. After its seq, a record frame is exactly a
// journal record (package record's framing, under the same size cap):
// the payload is the leader's journal batch record verbatim, checksummed
// again for the wire so a corrupted proxy hop cannot land a bad record in
// a follower's journal. Heartbeats flow while the leader is idle: they
// carry the leader's next sequence (the follower derives its lag from it)
// and the leader's current epoch (how a follower learns about promotions
// it did not itself perform).
const (
	frameRecord    = 'R'
	frameHeartbeat = 'H'
)

// frame is one decoded stream frame. Record frames carry seq and payload;
// heartbeats carry next (the leader's next sequence) and epoch.
type frame struct {
	kind    byte
	seq     uint64 // record frames: the record's sequence number
	next    uint64 // heartbeats: the leader's next sequence
	epoch   uint64 // heartbeats: the leader's epoch
	payload []byte
}

// writeRecordFrame emits one 'R' frame.
func writeRecordFrame(w *bufio.Writer, seq uint64, payload []byte) error {
	var hdr [17]byte
	b := binary.LittleEndian.AppendUint64(append(hdr[:0], frameRecord), seq)
	if _, err := w.Write(record.AppendHeader(b, payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeHeartbeatFrame emits one 'H' frame.
func writeHeartbeatFrame(w *bufio.Writer, next, epoch uint64) error {
	var hdr [17]byte
	hdr[0] = frameHeartbeat
	binary.LittleEndian.PutUint64(hdr[1:9], next)
	binary.LittleEndian.PutUint64(hdr[9:17], epoch)
	_, err := w.Write(hdr[:])
	return err
}

// readFrame decodes the next frame off the stream. io.EOF means the
// leader closed the stream cleanly between frames; any torn frame is
// reported as ErrUnexpectedEOF or a checksum error.
func readFrame(r *bufio.Reader) (frame, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return frame{}, err
	}
	var body [16]byte
	if _, err := io.ReadFull(r, body[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, fmt.Errorf("replica: torn %q frame header: %w", kind, err)
	}
	switch kind {
	case frameHeartbeat:
		return frame{
			kind:  kind,
			next:  binary.LittleEndian.Uint64(body[0:8]),
			epoch: binary.LittleEndian.Uint64(body[8:16]),
		}, nil
	case frameRecord:
		seq := binary.LittleEndian.Uint64(body[0:8])
		h, err := record.ParseHeader(body[8:16])
		if err != nil {
			return frame{}, fmt.Errorf("replica: record frame at seq %d: %w", seq, err)
		}
		payload, err := readPayload(r, int(h.Len))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, fmt.Errorf("replica: torn record frame at seq %d: %w", seq, err)
		}
		if err := h.Check(payload); err != nil {
			return frame{}, fmt.Errorf("replica: record frame at seq %d: %w", seq, err)
		}
		return frame{kind: kind, seq: seq, payload: payload}, nil
	default:
		return frame{}, fmt.Errorf("replica: unknown frame kind %q", kind)
	}
}

// readPayload reads a record frame's n payload bytes. Until they arrive
// and pass the checksum, n is only the sender's claim, so the buffer
// grows with the bytes that do arrive, doubling from 32 KiB: a frame torn
// short after a header that claims record.MaxPayload costs at most four
// times what it delivered, plus 32 KiB.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 32<<10))
	for got := 0; ; {
		k, err := io.ReadFull(r, buf[got:])
		got += k
		switch {
		case got == n:
			return buf, nil
		case err != nil:
			return nil, err
		}
		next := make([]byte, got+min(n-got, got))
		copy(next, buf)
		buf = next
	}
}
