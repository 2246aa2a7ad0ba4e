package replica

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/serve"
)

const (
	testN = 8
	testM = 4
)

// testVotes derives a small deterministic batch for batch number b.
func testVotes(b int) []crowd.Vote {
	votes := make([]crowd.Vote, 3)
	for k := range votes {
		i := (b + k) % testN
		votes[k] = crowd.Vote{
			Worker:   (b + k) % testM,
			I:        i,
			J:        (i + 1) % testN,
			PrefersI: (b+k)%2 == 0,
		}
	}
	return votes
}

// startNode opens a Node over dir and serves its Handler on a real
// listener, returning the node and its base URL. Cleanup runs LIFO, so a
// follower started after its leader shuts down first.
func startNode(t *testing.T, dir, leaderURL string, tweak func(*Config, *serve.Config)) (*Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	scfg := serve.DefaultConfig(testN, testM)
	scfg.JournalPath = dir
	scfg.Seed = 42
	scfg.Logf = t.Logf
	rcfg := Config{
		Self:           self,
		Leader:         leaderURL,
		EpochDir:       dir,
		HeartbeatEvery: 50 * time.Millisecond,
		Logf:           t.Logf,
	}
	if tweak != nil {
		tweak(&rcfg, &scfg)
	}
	n, err := Open(context.Background(), rcfg, scfg)
	if err != nil {
		//lint:ignore errcheck error-path cleanup of a listener the server never took over
		_ = ln.Close()
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewUnstartedServer(n.Handler())
	//lint:ignore errcheck the placeholder listener httptest allocated is being replaced, not used
	_ = ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() {
		//lint:ignore errcheck test teardown; a double-close error carries nothing actionable
		_ = n.Close()
	})
	t.Cleanup(ts.Close)
	return n, self
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func ingestKeyed(t *testing.T, n *Node, first, count int) []string {
	t.Helper()
	keys := make([]string, 0, count)
	for b := first; b < first+count; b++ {
		key := fmt.Sprintf("batch-%04d", b)
		if _, err := n.Server().IngestKeyed(context.Background(), key, testVotes(b)); err != nil {
			t.Fatalf("ingest %s: %v", key, err)
		}
		keys = append(keys, key)
	}
	return keys
}

func TestEpochStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if e, err := LoadEpoch(dir); err != nil || e != 0 {
		t.Fatalf("fresh dir: epoch %d err %v, want 0 nil", e, err)
	}
	if err := StoreEpoch(dir, 7); err != nil {
		t.Fatal(err)
	}
	if e, err := LoadEpoch(dir); err != nil || e != 7 {
		t.Fatalf("after store: epoch %d err %v, want 7 nil", e, err)
	}
	if err := StoreEpoch(dir, 9); err != nil {
		t.Fatal(err)
	}
	if e, _ := LoadEpoch(dir); e != 9 {
		t.Fatalf("after second store: epoch %d, want 9", e)
	}
}

func TestFollowerTailsLeaderAndRejectsIngest(t *testing.T) {
	leader, leaderURL := startNode(t, t.TempDir(), "", nil)
	ingestKeyed(t, leader, 0, 10)
	follower, _ := startNode(t, t.TempDir(), leaderURL, nil)

	waitFor(t, "follower catch-up", func() bool {
		st := follower.Status()
		return st.Connected && st.Lag == 0 && st.LocalNextSeq == leader.localNextSeq()
	})
	if got, want := follower.Server().VoteCount(), leader.Server().VoteCount(); got != want {
		t.Fatalf("follower has %d votes, leader %d", got, want)
	}
	if err := follower.Ready(); err != nil {
		t.Fatalf("caught-up follower should be ready: %v", err)
	}

	// Live tail: later batches arrive without a reconnect.
	ingestKeyed(t, leader, 10, 5)
	waitFor(t, "tail replication", func() bool {
		return follower.Server().VoteCount() == leader.Server().VoteCount()
	})

	// Ingest addressed to the follower is rejected with a leader hint.
	resp, err := http.Post(followerURL(follower)+"/votes", "application/json", strings.NewReader(`{"votes":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower ingest answered %d, want 503", resp.StatusCode)
	}
	if hint := resp.Header.Get(LeaderHeader); hint != leaderURL {
		t.Fatalf("leader hint %q, want %q", hint, leaderURL)
	}
}

// followerURL recovers the node's advertised URL for direct HTTP pokes.
func followerURL(n *Node) string { return n.cfg.Self }

func TestFailoverReplaysAcksAndFencesOldLeader(t *testing.T) {
	dirA := t.TempDir()
	a, aURL := startNode(t, dirA, "", nil)
	keys := ingestKeyed(t, a, 0, 8)
	b, _ := startNode(t, t.TempDir(), aURL, nil)
	waitFor(t, "follower catch-up", func() bool {
		st := b.Status()
		return st.Connected && st.Lag == 0 && st.LocalNextSeq == a.localNextSeq()
	})

	st, err := b.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if st.Role != RoleLeader || st.Epoch != 1 {
		t.Fatalf("promoted status %+v, want leader at epoch 1", st)
	}
	if e, _ := LoadEpoch(b.cfg.EpochDir); e != 1 {
		t.Fatalf("promoted epoch on disk = %d, want 1", e)
	}
	// Promotion is idempotent: no second bump.
	if st, err = b.Promote(); err != nil || st.Epoch != 1 {
		t.Fatalf("re-promote: %+v %v, want epoch still 1", st, err)
	}

	// Exactly-once across failover: a batch acked by the old leader
	// replays from the NEW leader's replicated ack window.
	res, err := b.Server().IngestKeyed(context.Background(), keys[3], testVotes(3))
	if err != nil {
		t.Fatalf("retry on new leader: %v", err)
	}
	if !res.Replayed {
		t.Fatalf("retried key %s re-applied on the new leader instead of replaying: %+v", keys[3], res)
	}

	// Fence the deposed leader: an ingest carrying the new epoch makes A
	// step down and poison its journal.
	req, err := http.NewRequest(http.MethodPost, aURL+"/votes", strings.NewReader(`{"votes":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(EpochHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced ingest answered %d, want 503", resp.StatusCode)
	}
	if a.Role() != RoleFollower {
		t.Fatalf("old leader role %s after fencing, want follower", a.Role())
	}
	if e, _ := LoadEpoch(dirA); e != 1 {
		t.Fatalf("deposed leader recorded epoch %d, want adopted 1", e)
	}
	// The poison fences even epoch-less ingest from old clients.
	if _, err := a.Server().IngestKeyed(context.Background(), "late", testVotes(99)); err == nil {
		t.Fatal("deposed leader accepted an ingest; journal should be poisoned")
	}
	if err := a.Ready(); err == nil {
		t.Fatal("deposed leader reports ready")
	}
}

func TestStreamRequestWithHigherEpochDeposesLeader(t *testing.T) {
	a, aURL := startNode(t, t.TempDir(), "", nil)
	resp, err := http.Get(aURL + "/replicate/stream?from=0&epoch=5")
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream with higher epoch answered %d, want 503", resp.StatusCode)
	}
	if a.Role() != RoleFollower || a.Epoch() != 5 {
		t.Fatalf("leader survived a higher-epoch stream probe: role=%s epoch=%d", a.Role(), a.Epoch())
	}
}

func TestFreshFollowerBootstrapsFromSnapshot(t *testing.T) {
	a, aURL := startNode(t, t.TempDir(), "", nil)
	ingestKeyed(t, a, 0, 12)
	if _, err := a.Server().Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ingestKeyed(t, a, 12, 4) // tail past the snapshot

	// The compacted prefix is gone: streaming from 0 must be refused.
	resp, err := http.Get(aURL + "/replicate/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream below the compaction horizon answered %d, want 410", resp.StatusCode)
	}

	b, _ := startNode(t, t.TempDir(), aURL, nil)
	if !b.bootstrapped {
		t.Fatal("fresh follower did not bootstrap from the leader snapshot")
	}
	waitFor(t, "bootstrap + tail catch-up", func() bool {
		return b.Server().VoteCount() == a.Server().VoteCount() && b.Lag() == 0
	})
	if got, want := b.localNextSeq(), a.localNextSeq(); got != want {
		t.Fatalf("follower at seq %d, leader at %d", got, want)
	}
}

func TestHealthzCarriesReplicaBlockAndAckCapacity(t *testing.T) {
	a, aURL := startNode(t, t.TempDir(), "", nil)
	ingestKeyed(t, a, 0, 2)
	resp, err := http.Get(aURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"replica"`, `"role":"leader"`, `"epoch":0`, `"ack_window":2`, `"ack_window_capacity":65536`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("healthz body missing %s:\n%s", want, body)
		}
	}
	if got := resp.Header.Get(EpochHeader); got != "0" {
		t.Errorf("healthz epoch header %q, want 0", got)
	}
}
