package replica

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"crowdrank/internal/journal"
	"crowdrank/internal/snapshot"
)

// snapshotTimeout bounds the snapshot fetch that bootstraps a fresh
// follower.
const snapshotTimeout = 60 * time.Second

// handleStream is the leader side of replication: a chunked response
// carrying every journal record from ?from= onward, tailing live appends
// as the journal wakes it, with heartbeats while idle. The ?epoch= the
// follower sends is a fencing probe in both directions: a requester ahead
// of us deposes us; a requester behind us learns our epoch from the header
// and heartbeats.
func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		n.writeError(w, http.StatusBadRequest, "from must be a sequence number, got %q", q.Get("from"))
		return
	}
	var reqEpoch uint64
	if raw := q.Get("epoch"); raw != "" {
		if reqEpoch, err = strconv.ParseUint(raw, 10, 64); err != nil {
			n.writeError(w, http.StatusBadRequest, "epoch must be a number, got %q", raw)
			return
		}
	}
	if n.observeEpoch(reqEpoch) {
		n.setEpochHeader(w)
		n.writeError(w, http.StatusServiceUnavailable, "%v: stream refused", ErrDeposed)
		return
	}
	n.setEpochHeader(w)
	if n.Role() != RoleLeader {
		n.rejectNotLeader(w)
		return
	}
	jnl := n.srv.Journal()
	if jnl == nil {
		n.writeError(w, http.StatusConflict, "leader runs in-memory; replication requires a journal")
		return
	}
	if first := jnl.FirstSeq(); from < first {
		n.writeError(w, http.StatusGone,
			"records before seq %d were compacted away; bootstrap from /replicate/snapshot", first)
		return
	}
	rd, err := jnl.OpenReader(from)
	if err != nil {
		if errors.Is(err, journal.ErrSeqGap) {
			n.writeError(w, http.StatusGone, "%v", err)
			return
		}
		n.writeError(w, http.StatusRequestedRangeNotSatisfiable, "%v", err)
		return
	}
	defer func() {
		//lint:ignore errcheck the reader only held a read handle; nothing to lose on close
		_ = rd.Close()
	}()

	flusher, ok := w.(http.Flusher)
	if !ok {
		n.writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	// The daemon's http.Server carries a WriteTimeout sized for request/
	// response traffic; a replication stream outlives it by design, so
	// each write extends its own deadline instead.
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	writeSlack := 4 * heartbeatEvery
	if writeSlack < 10*time.Second {
		writeSlack = 10 * time.Second
	}
	// Once caught up, the stream waits for the journal to wake it (an
	// append, the Poison that deposes us, or Close), for the request or
	// replication to end, or for the next heartbeat to fall due.
	beatDue := true // the first frame is a heartbeat
	beat := time.NewTimer(heartbeatEvery)
	defer beat.Stop()
	for {
		// A leader that stepped down mid-stream stops feeding followers;
		// dropping the connection makes them re-dial and discover the
		// truth (503 + hint, or the new leader via their own config).
		if r.Context().Err() != nil || n.ctx.Err() != nil || n.Role() != RoleLeader {
			return
		}
		//lint:ignore errcheck a failed deadline extension surfaces as a failed write below
		_ = rc.SetWriteDeadline(time.Now().Add(writeSlack))
		wrote := false
		var err error
		for i := 0; i < 256; i++ { // drain a burst, then flush
			var payload []byte
			var seq uint64
			if payload, seq, err = rd.Next(); err != nil {
				break
			}
			if err := writeRecordFrame(bw, seq, payload); err != nil {
				return
			}
			n.met.streamed.Inc()
			wrote = true
		}
		if err != nil && err != io.EOF {
			// Compacted under the reader, a local read fault, or the
			// journal closed; the follower re-dials and is told to
			// resync if need be.
			n.logf("replica: stream at seq %d: %v", rd.Seq(), err)
			return
		}
		select {
		case <-beat.C:
			beatDue = true
		default:
		}
		if beatDue {
			if err := writeHeartbeatFrame(bw, jnl.NextSeq(), n.Epoch()); err != nil {
				return
			}
			beatDue = false
			beat.Reset(heartbeatEvery)
			wrote = true
		}
		if wrote {
			if err := bw.Flush(); err != nil {
				return
			}
			flusher.Flush()
		}
		if err == nil {
			continue // a full burst: more records may be ready
		}
		select {
		case <-r.Context().Done():
			return
		case <-n.ctx.Done():
			return
		case <-rd.Ready():
		case <-beat.C:
			beatDue = true
		}
	}
}

// handleSnapshot serves the leader's full state as one encoded snapshot,
// the bootstrap path for a fresh follower whose journal position the
// leader has already compacted away (or that has no state at all).
func (n *Node) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	n.setEpochHeader(w)
	if n.Role() != RoleLeader {
		n.rejectNotLeader(w)
		return
	}
	data := snapshot.EncodeImage(n.srv.StateSnapshot())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if _, err := w.Write(data); err != nil {
		n.logf("replica: writing bootstrap snapshot: %v", err)
	}
}

// bootstrap installs the leader's snapshot into an empty data dir, so the
// follower's serving engine starts from the leader's state and the
// stream only has to carry the tail. A dir that already holds journal or
// snapshot files is left alone — the existing state resumes from its own
// position.
func (n *Node) bootstrap(ctx context.Context, dir string) error {
	empty, err := storeIsEmpty(dir)
	if err != nil {
		return err
	}
	if !empty {
		return nil
	}
	sctx, cancel := context.WithTimeout(ctx, snapshotTimeout)
	defer cancel()
	url := n.cfg.Leader + "/replicate/snapshot"
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("replica: building bootstrap request: %w", err)
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return fmt.Errorf("replica: fetching bootstrap snapshot from %s: %w", n.cfg.Leader, err)
	}
	defer func() {
		//lint:ignore errcheck response body close after a full read carries nothing actionable
		_ = resp.Body.Close()
	}()
	n.observeEpochHeader(resp.Header)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //nolint:errcheck // best-effort error context
		return fmt.Errorf("replica: bootstrap snapshot from %s answered %d: %s",
			n.cfg.Leader, resp.StatusCode, bytes.TrimSpace(body))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, snapshot.MaxBytes+1))
	if err != nil {
		return fmt.Errorf("replica: reading bootstrap snapshot: %w", err)
	}
	if len(data) > snapshot.MaxBytes {
		return fmt.Errorf("replica: bootstrap snapshot from %s exceeds the %d-byte snapshot cap", n.cfg.Leader, snapshot.MaxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("replica: creating data dir: %w", err)
	}
	path, st, err := snapshot.InstallRaw(dir, data)
	if err != nil {
		return fmt.Errorf("replica: installing bootstrap snapshot: %w", err)
	}
	n.bootstrapped = true
	n.logf("replica: bootstrapped from %s: %s (seq %d, %d votes)", n.cfg.Leader, path, st.Seq, len(st.Votes))
	return nil
}

// storeIsEmpty reports whether dir holds no journal segments and no
// snapshots (a missing dir counts as empty).
func storeIsEmpty(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("replica: inspecting data dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "journal") || strings.HasPrefix(name, "snapshot.") {
			return false, nil
		}
	}
	return true, nil
}

// replicate is the follower loop: dial the leader's stream, apply frames,
// re-dial with backoff on any disconnect, until Close or promotion.
func (n *Node) replicate(ctx context.Context) {
	defer n.wg.Done()
	const minBackoff, maxBackoff = 50 * time.Millisecond, 2 * time.Second
	backoff := minBackoff
	for {
		if ctx.Err() != nil || n.Role() != RoleFollower {
			return
		}
		progressed, err := n.streamOnce(ctx)
		n.connected.Store(false)
		if ctx.Err() != nil || n.Role() != RoleFollower {
			return
		}
		n.met.reconnects.Inc()
		if err != nil {
			n.logf("replica: stream: %v", err)
		}
		if progressed {
			backoff = minBackoff
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// streamOnce runs one stream connection to completion. progressed means
// at least one frame arrived, which resets the caller's backoff.
func (n *Node) streamOnce(ctx context.Context) (progressed bool, err error) {
	leader := n.LeaderHint()
	if leader == "" {
		return false, fmt.Errorf("replica: no known leader to replicate from")
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	url := fmt.Sprintf("%s/replicate/stream?from=%d&epoch=%d", leader, n.localNextSeq(), n.Epoch())
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, url, nil)
	if err != nil {
		return false, fmt.Errorf("replica: building stream request: %w", err)
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("replica: dialing %s: %w", leader, err)
	}
	defer func() {
		//lint:ignore errcheck stream body close on disconnect carries nothing actionable
		_ = resp.Body.Close()
	}()
	n.observeEpochHeader(resp.Header)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The leader compacted past our position: the stream can never
		// carry the gap. Flag it loudly (readyz stays 503) instead of
		// hammering the leader; the operator wipes the dir and restarts.
		n.resync.Store(true)
		return false, fmt.Errorf("replica: leader %s compacted past our position %d; wipe the data dir and re-bootstrap", leader, n.localNextSeq())
	case http.StatusServiceUnavailable:
		if hint := resp.Header.Get(LeaderHeader); hint != "" {
			n.setLeader(hint)
		}
		return false, fmt.Errorf("replica: %s is not the leader", leader)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //nolint:errcheck // best-effort error context
		return false, fmt.Errorf("replica: stream request to %s answered %d: %s",
			leader, resp.StatusCode, bytes.TrimSpace(body))
	}

	// Heartbeat watchdog: the leader promises a frame at least every
	// heartbeatEvery, so a stream silent for several beats is dead (a
	// black-holed connection would otherwise block the read forever) and
	// gets cancelled under us.
	staleAfter := 4*heartbeatEvery + 2*time.Second
	watchdog := time.AfterFunc(staleAfter, cancel)
	defer watchdog.Stop()

	br := bufio.NewReader(resp.Body)
	for {
		if n.Role() != RoleFollower {
			return progressed, nil
		}
		fr, err := readFrame(br)
		if err != nil {
			if err == io.EOF {
				return progressed, fmt.Errorf("replica: leader %s closed the stream", leader)
			}
			return progressed, err
		}
		progressed = true
		watchdog.Reset(staleAfter)
		switch fr.kind {
		case frameRecord:
			if err := n.applyRecord(fr.seq, fr.payload); err != nil {
				return progressed, err
			}
		case frameHeartbeat:
			n.noteLeaderNext(fr.next)
			if fr.epoch < n.Epoch() {
				// The node we stream from is behind the cluster epoch — a
				// deposed leader still running. Stop feeding from it.
				return progressed, fmt.Errorf("replica: %s streams at stale epoch %d (cluster is at %d)", leader, fr.epoch, n.Epoch())
			}
			n.observeEpoch(fr.epoch)
		}
		n.connected.Store(true)
	}
}

// applyRecord lands one streamed record in the local journal and state.
func (n *Node) applyRecord(seq uint64, payload []byte) error {
	local := n.localNextSeq()
	if seq < local {
		// Already have it (reconnect overlap); the leader's position still
		// moves our lag accounting.
		n.noteLeaderNext(seq + 1)
		return nil
	}
	if seq > local {
		n.resync.Store(true)
		return fmt.Errorf("replica: stream jumped to seq %d but local journal is at %d: %w", seq, local, journal.ErrSeqGap)
	}
	if err := n.srv.ApplyReplicated(seq, payload); err != nil {
		return err
	}
	n.met.applied.Inc()
	n.noteLeaderNext(seq + 1)
	return nil
}

// noteLeaderNext ratchets the last-heard leader position (monotonic; a
// reconnect must not move lag backwards).
func (n *Node) noteLeaderNext(next uint64) {
	for {
		cur := n.leaderNext.Load()
		if next <= cur || n.leaderNext.CompareAndSwap(cur, next) {
			return
		}
	}
}
