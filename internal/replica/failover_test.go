package replica

// The chaos failover soak is the end-to-end acceptance test for the
// replication tentpole: a real client Pool talking through fault-injecting
// netfault proxies to a leader and a warm standby running as separate
// processes (re-execs of this test binary). The leader is SIGKILLed
// mid-soak with a batch submitted INTO the outage, the standby is promoted
// over HTTP, and the run must lose no acked batch, apply no batch twice,
// and converge to exactly the ranking a fault-free run produces. The
// finale restarts the dead leader from its intact data dir — still
// believing it leads at the stale epoch — and proves one fenced request
// deposes it for good.
//
// Knobs for CI and drills:
//
//	CROWDRANK_FAILOVER_BATCHES  batch count (default 24; raise for a long soak)
//	CROWDRANK_FAILOVER_SUMMARY  write a JSON run summary (incl. proxy fault
//	                            stats) to this path

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdrank/internal/client"
	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/netfault"
	"crowdrank/internal/reexec"
	"crowdrank/internal/serve"
)

const (
	failDirEnv       = "CROWDRANK_FAILOVER_DIR"
	failLeaderEnv    = "CROWDRANK_FAILOVER_LEADER"
	failAdvertiseEnv = "CROWDRANK_FAILOVER_ADVERTISE"
	failBatchesEnv   = "CROWDRANK_FAILOVER_BATCHES"
	failSummaryEnv   = "CROWDRANK_FAILOVER_SUMMARY"

	failN             = 16 // small enough for exact search; its work cap, not timing, decides the rung
	failM             = 8
	failPairs         = failN * (failN - 1) / 2
	failVotesPerBatch = 3
	failBatchesShort  = 24
)

// failVote derives the seq-th unique submission; every vote in the soak is
// distinct, so a double-applied batch surfaces as recovered duplicates and
// a lost batch as a short vote count.
func failVote(seq int) crowd.Vote {
	p := seq % failPairs
	w := (seq / failPairs) % failM
	i, row := 0, failN-1
	for p >= row {
		p -= row
		i++
		row--
	}
	return crowd.Vote{Worker: w, I: i, J: i + 1 + p, PrefersI: seq%3 != 0}
}

func failBatch(b int) []crowd.Vote {
	votes := make([]crowd.Vote, failVotesPerBatch)
	for k := range votes {
		votes[k] = failVote(b*failVotesPerBatch + k)
	}
	return votes
}

// failServeConfig is shared by both child daemons, the fault-free
// baseline, and the offline recovery check. Snapshots are disabled so the
// follower's journal holds every replicated record — one acked batch <=>
// one journal record, which makes the offline accounting exact.
func failServeConfig() serve.Config {
	cfg := serve.DefaultConfig(failN, failM)
	cfg.Seed = 1
	cfg.SnapshotEveryBatches = -1
	cfg.SnapshotMaxJournalBytes = -1
	return cfg
}

// TestFailoverChildDaemon is not a test of its own: TestChaosFailoverExactlyOnce
// re-execs the test binary with CROWDRANK_FAILOVER_DIR set to turn this
// into one node of the replicated pair. The node advertises the URL given
// in CROWDRANK_FAILOVER_ADVERTISE (its netfault proxy, so leader hints
// route clients through the faults) and follows CROWDRANK_FAILOVER_LEADER
// when non-empty.
func TestFailoverChildDaemon(t *testing.T) {
	dir := os.Getenv(failDirEnv)
	if dir == "" {
		t.Skip("not a failover child")
	}
	reexec.ExitWithParent()
	scfg := failServeConfig()
	scfg.JournalPath = filepath.Join(dir, "wal")
	scfg.JournalSync = journal.SyncAlways // acks must mean durable
	rcfg := Config{
		Self:     os.Getenv(failAdvertiseEnv),
		Leader:   os.Getenv(failLeaderEnv),
		EpochDir: dir,
	}
	// The bootstrap snapshot fetch and first stream dial go through a
	// fault-injecting proxy; retry startup instead of dying on a reset.
	var n *Node
	var err error
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, err = Open(context.Background(), rcfg, scfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover child: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("failover child: %v", err)
	}
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("failover child: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatalf("failover child: %v", err)
	}
	// Serve until SIGKILL, or until the parent dies (ExitWithParent).
	t.Fatalf("failover child: listener exited: %v", http.Serve(ln, n.Handler()))
}

// startFailoverChild re-execs the test binary as one replicated node.
// Callers SIGKILL it via child.Process.Kill; cleanup reaps early bailouts,
// and the child exits by itself if this process dies first.
func startFailoverChild(t *testing.T, dir, leader, advertise string) *exec.Cmd {
	t.Helper()
	child := reexec.Command("TestFailoverChildDaemon",
		failDirEnv+"="+dir,
		failLeaderEnv+"="+leader,
		failAdvertiseEnv+"="+advertise,
	)
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := reexec.Start(child); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = child.Process.Kill()
		_ = child.Wait() // double Wait errors harmlessly after a clean reap
	})
	addrPath := filepath.Join(dir, "addr")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("failover child in %s never wrote its address file", dir)
		}
		if _, err := os.ReadFile(addrPath); err == nil {
			return child
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// childAddr reads a child's current listen address; "" while it is down
// makes the proxy's upstream dial fail fast, which the Pool retries.
func childAddr(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, "addr"))
	if err != nil {
		return ""
	}
	return string(b)
}

// childHealth fetches one child's replication status on its DIRECT
// address, bypassing the fault proxies: this is control-plane polling the
// operator would also do against the real port.
func childHealth(dir string) (Status, error) {
	addr := childAddr(dir)
	if addr == "" {
		return Status{}, fmt.Errorf("no address file yet")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return Status{}, err
	}
	defer func() {
		//lint:ignore errcheck test poll loop; nothing actionable on close
		_ = resp.Body.Close()
	}()
	var body struct {
		Replica Status `json:"replica"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return Status{}, err
	}
	return body.Replica, nil
}

// failAckEquivalent compares two acks for the same batch ignoring the
// replay marker and client-side key annotation: a replayed ack — even one
// served by the successor after failover — must carry the original
// acknowledgement verbatim.
func failAckEquivalent(a, b client.Ack) bool {
	a.Replayed, b.Replayed = false, false
	a.Key, b.Key = "", ""
	return a == b
}

// TestChaosFailoverExactlyOnce is the failover acceptance soak described
// in the file comment.
func TestChaosFailoverExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos failover soak skipped in -short")
	}
	batches := failBatchesShort
	if v := os.Getenv(failBatchesEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 8 {
			t.Fatalf("bad %s=%q: want an integer >= 8", failBatchesEnv, v)
		}
		batches = n
	}
	if batches*failVotesPerBatch > failPairs*failM {
		t.Fatalf("%d batches exceed the %d unique votes the universe holds", batches, failPairs*failM)
	}

	// Fault-free baseline: same engine config, same votes, no network, no
	// failover — the ranking the chaos run must reproduce exactly.
	baseline, err := serve.New(failServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		if _, err := baseline.Ingest(failBatch(b)); err != nil {
			t.Fatalf("baseline ingest %d: %v", b, err)
		}
	}
	wantRank, err := baseline.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.Close(); err != nil {
		t.Fatal(err)
	}

	// Two nodes, each behind its own fault proxy. The children ADVERTISE
	// their proxy URLs, so every leader hint a client follows routes
	// through the faults too.
	dirA, dirB := t.TempDir(), t.TempDir()
	faults := netfault.Config{
		Seed:          7,
		ResetProb:     0.10,
		BlackholeProb: 0.02,
		HalfOpenProb:  0.03,
		DribbleProb:   0.03,
		Latency:       time.Millisecond,
		FaultAfter:    512,
		DribbleDelay:  200 * time.Microsecond,
	}
	proxyA, err := netfault.NewProxy(func() string { return childAddr(dirA) }, faults)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore errcheck test teardown of the proxy listener
		_ = proxyA.Close()
	}()
	faultsB := faults
	faultsB.Seed = 8 // an independent fault plan for the standby's proxy
	proxyB, err := netfault.NewProxy(func() string { return childAddr(dirB) }, faultsB)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore errcheck test teardown of the proxy listener
		_ = proxyB.Close()
	}()

	// Start the leader, then the standby while the store is still empty:
	// the follower's journal then holds EVERY replicated record, keeping
	// the offline accounting exact. The standby replicates through the
	// leader's proxy, so the stream itself rides the faults.
	childA := startFailoverChild(t, dirA, "", proxyA.URL())
	childB := startFailoverChild(t, dirB, proxyA.URL(), proxyB.URL())
	waitStatus := func(what, dir string, cond func(Status) bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			st, err := childHealth(dir)
			if err == nil && cond(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (last status %+v, err %v)", what, st, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitStatus("standby stream attach", dirB, func(st Status) bool {
		return st.Role == RoleFollower && st.Connected
	})

	pool, err := client.NewPool(client.Config{
		Seed:           42,
		MaxAttempts:    60,
		BaseBackoff:    10 * time.Millisecond,
		MaxBackoff:     500 * time.Millisecond,
		AttemptTimeout: time.Second,
		// Fresh connections draw fresh fault plans, maximizing coverage.
		HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Logf:       t.Logf,
	}, []string{proxyA.URL(), proxyB.URL()})
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]string, batches)
	acks := make([]client.Ack, batches)
	submit := func(b int) (client.Ack, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		defer cancel()
		return pool.SubmitVotesKeyed(ctx, keys[b], failBatch(b))
	}
	deliver := func(b int) {
		keys[b] = pool.NewKey()
		ack, err := submit(b)
		if err != nil {
			t.Fatalf("batch %d never acked (proxyA: %s, proxyB: %s): %v", b, proxyA.Stats(), proxyB.Stats(), err)
		}
		acks[b] = ack
	}

	half := batches / 2
	for b := 0; b < half; b++ {
		deliver(b)
	}

	// Quiesce: every acked batch must be on the standby before the leader
	// dies, or the loss would be the stream's, not the failover's.
	waitStatus("standby catch-up", dirB, func(st Status) bool {
		return st.Connected && st.LocalNextSeq == uint64(half)
	})

	// SIGKILL the leader. The next batch is submitted INTO the outage, so
	// its retries span the dead leader, the promotion, and the Pool's
	// re-resolution onto the successor.
	if err := childA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dirA, "addr")); err != nil {
		t.Fatal(err)
	}
	keys[half] = pool.NewKey()
	type outcome struct {
		ack client.Ack
		err error
	}
	mid := make(chan outcome, 1)
	go func() {
		ack, err := submit(half)
		mid <- outcome{ack, err}
	}()
	time.Sleep(300 * time.Millisecond) // let retries hit the outage
	_ = childA.Wait()                  // reap before anything else

	// Operator failover: promote the standby on its direct address.
	resp, err := http.Post("http://"+childAddr(dirB)+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote answered %d", resp.StatusCode)
	}
	waitStatus("standby promotion", dirB, func(st Status) bool {
		return st.Role == RoleLeader && st.Epoch == 1
	})

	select {
	case o := <-mid:
		if o.err != nil {
			t.Fatalf("batch %d lost across the failover (proxyA: %s, proxyB: %s): %v",
				half, proxyA.Stats(), proxyB.Stats(), o.err)
		}
		acks[half] = o.ack
	case <-time.After(2 * time.Minute):
		t.Fatalf("batch %d still unacked long after the promotion (proxyA: %s, proxyB: %s)",
			half, proxyA.Stats(), proxyB.Stats())
	}

	// Cross-failover replay: a key acked by the DEAD leader must replay
	// its original ack from the successor's replicated window.
	if r, err := submit(2); err != nil {
		t.Fatalf("cross-failover replay: %v", err)
	} else if !r.Replayed || !failAckEquivalent(r, acks[2]) {
		t.Fatalf("cross-failover replay: got %+v, want replayed copy of %+v", r, acks[2])
	}

	for b := half + 1; b < batches; b++ {
		deliver(b)
	}

	// Exactly-once sweep: EVERY key of the soak — old-leader acks and
	// new-leader acks alike — replays its original acknowledgement.
	for b := 0; b < batches; b++ {
		r, err := submit(b)
		if err != nil {
			t.Fatalf("sweep replay of batch %d: %v", b, err)
		}
		if !r.Replayed || !failAckEquivalent(r, acks[b]) {
			t.Fatalf("sweep replay of batch %d: got %+v, want replayed copy of %+v", b, r, acks[b])
		}
	}

	// Converged ranking through the faulty proxies equals the fault-free run.
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	got, err := pool.Rank(rctx, 2*time.Second)
	rcancel()
	if err != nil {
		t.Fatalf("rank through proxies: %v", err)
	}
	if !slices.Equal(got.Ranking, wantRank.Ranking) {
		t.Fatalf("failover ranking diverged from the fault-free run:\n got %v (%s)\nwant %v (%s)",
			got.Ranking, got.Algorithm, wantRank.Ranking, wantRank.Algorithm)
	}
	if got.Votes != batches*failVotesPerBatch {
		t.Fatalf("cluster holds %d votes, want %d", got.Votes, batches*failVotesPerBatch)
	}

	// Fencing finale: restart the dead leader from its intact data dir. It
	// comes back BELIEVING IT LEADS at the stale epoch 0 — and one request
	// carrying the promoted epoch must depose it and poison its journal.
	childA = startFailoverChild(t, dirA, "", proxyA.URL())
	waitStatus("stale leader restart", dirA, func(st Status) bool {
		return st.Role == RoleLeader && st.Epoch == 0
	})
	fence, err := http.NewRequest(http.MethodPost, "http://"+childAddr(dirA)+"/votes",
		strings.NewReader(`{"votes":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	fence.Header.Set("Content-Type", "application/json")
	fence.Header.Set(EpochHeader, strconv.FormatUint(pool.Epoch(), 10))
	if pool.Epoch() != 1 {
		t.Fatalf("pool never learned the promoted epoch, has %d", pool.Epoch())
	}
	fresp, err := http.DefaultClient.Do(fence)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale leader accepted a fenced ingest: %d", fresp.StatusCode)
	}
	waitStatus("stale leader deposed", dirA, func(st Status) bool {
		return st.Role == RoleFollower && st.Epoch == 1
	})
	// Even an epoch-less ingest from an out-of-date client is refused now:
	// the journal is poisoned.
	lresp, err := http.Post("http://"+childAddr(dirA)+"/votes", "application/json",
		strings.NewReader(`{"votes":[{"worker":0,"i":0,"j":1,"prefers_i":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; nothing actionable on close
	defer lresp.Body.Close()
	if lresp.StatusCode == http.StatusOK {
		t.Fatal("deposed leader acknowledged an ingest after fencing")
	}

	// Offline verification on the SUCCESSOR's journal: kill both children
	// and recover it into a fresh engine. One acked batch <=> one record,
	// every vote unique, so these checks pin zero loss and zero
	// double-application across the failover.
	_ = childA.Process.Kill()
	_ = childA.Wait()
	_ = childB.Process.Kill()
	_ = childB.Wait()
	offCfg := failServeConfig()
	offCfg.JournalPath = filepath.Join(dirB, "wal")
	off, err := serve.New(offCfg)
	if err != nil {
		t.Fatalf("offline recovery: %v", err)
	}
	if rec := off.Recovered(); rec.Records != batches {
		t.Fatalf("successor journal holds %d batch records, want exactly %d (loss or double-apply): %s",
			rec.Records, batches, rec)
	}
	if n := off.VoteCount(); n != batches*failVotesPerBatch {
		t.Fatalf("recovered %d votes, want %d", n, batches*failVotesPerBatch)
	}
	if st := off.StatsSnapshot(); st.Duplicates != 0 {
		t.Fatalf("recovery deduplicated %d votes; some batch was applied twice", st.Duplicates)
	}
	if st := off.StatsSnapshot(); st.AckWindow != batches {
		t.Fatalf("recovered ack window holds %d keys, want %d", st.AckWindow, batches)
	}
	offRank, err := off.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(offRank.Ranking, wantRank.Ranking) {
		t.Fatalf("post-recovery ranking diverged from the fault-free run:\n got %v\nwant %v",
			offRank.Ranking, wantRank.Ranking)
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}

	if path := os.Getenv(failSummaryEnv); path != "" {
		statsA, statsB := proxyA.Stats(), proxyB.Stats()
		summary, err := json.MarshalIndent(map[string]any{
			"batches":          batches,
			"votes":            batches * failVotesPerBatch,
			"leader_faults":    statsA,
			"leader_summary":   statsA.String(),
			"follower_faults":  statsB,
			"follower_summary": statsB.String(),
			"ranking":          wantRank.Ranking,
			"algorithm":        wantRank.Algorithm,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, summary, 0o644); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
	}
}
