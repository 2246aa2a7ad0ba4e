package client

// The chaos soak is the end-to-end acceptance test for the tentpole
// contract: a real Client talking to a real crowdrankd engine through the
// netfault proxy — resets, black holes, half-opens, dribbles, latency —
// with a SIGKILL and restart of the daemon mid-soak, must lose no acked
// batch, apply no batch twice, and converge to exactly the ranking a
// fault-free run produces.
//
// The daemon runs in a child process (re-exec of this test binary, the
// same pattern as internal/serve's chaos tests) so the SIGKILL is a real
// process death, and the proxy's target callback re-reads the address
// file so the same proxy carries traffic across the restart.
//
// Knobs for CI and drills:
//
//	CROWDRANK_SOAK_BATCHES  batch count (default 24; raise for a long soak)
//	CROWDRANK_SOAK_SUMMARY  write a JSON run summary to this path

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/netfault"
	"crowdrank/internal/reexec"
	"crowdrank/internal/serve"
)

const (
	soakDirEnv     = "CROWDRANK_SOAK_DIR"
	soakBatchesEnv = "CROWDRANK_SOAK_BATCHES"
	soakSummaryEnv = "CROWDRANK_SOAK_SUMMARY"

	soakN             = 16 // within ExactLimit, so ranking is the exact Held-Karp answer
	soakM             = 8
	soakPairs         = soakN * (soakN - 1) / 2
	soakVotesPerBatch = 3
	soakBatchesShort  = 24
)

// soakVote derives the seq-th unique submission: every vote in the soak is
// distinct, so a double-applied batch would surface as recovered
// duplicates and a lost batch as a short vote count.
func soakVote(seq int) crowd.Vote {
	p := seq % soakPairs
	w := (seq / soakPairs) % soakM
	// Unrank p into the (i, j) pair with i < j.
	i, row := 0, soakN-1
	for p >= row {
		p -= row
		i++
		row--
	}
	return crowd.Vote{Worker: w, I: i, J: i + 1 + p, PrefersI: seq%3 != 0}
}

// soakBatch is the b-th batch of the soak's deterministic vote stream.
func soakBatch(b int) []crowd.Vote {
	votes := make([]crowd.Vote, soakVotesPerBatch)
	for k := range votes {
		votes[k] = soakVote(b*soakVotesPerBatch + k)
	}
	return votes
}

// soakServeConfig is the engine configuration shared by the child daemon,
// the fault-free baseline, and the offline recovery check, so all three
// rank the same votes the same way.
func soakServeConfig() serve.Config {
	cfg := serve.DefaultConfig(soakN, soakM)
	cfg.Seed = 1
	// Journal-only recovery keeps the offline accounting exact: one acked
	// batch <=> one journal record, so Recovered().Records counts both
	// losses and double-applications. Kills interleaved with snapshot
	// writes are internal/serve's chaos coverage, not this soak's.
	cfg.SnapshotEveryBatches = -1
	cfg.SnapshotMaxJournalBytes = -1
	return cfg
}

// TestSoakChildDaemon is not a test of its own: TestChaosSoakExactlyOnce
// re-execs the test binary with CROWDRANK_SOAK_DIR set to turn this into
// the victim daemon that gets SIGKILLed mid-soak.
func TestSoakChildDaemon(t *testing.T) {
	dir := os.Getenv(soakDirEnv)
	if dir == "" {
		t.Skip("not a soak child")
	}
	reexec.ExitWithParent()
	cfg := soakServeConfig()
	cfg.JournalPath = filepath.Join(dir, "wal")
	cfg.JournalSync = journal.SyncAlways // acks must mean durable
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("soak child: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("soak child: %v", err)
	}
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("soak child: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatalf("soak child: %v", err)
	}
	// Serve until SIGKILL, or until the parent dies (ExitWithParent).
	t.Fatalf("soak child: listener exited: %v", http.Serve(ln, s.Handler()))
}

// startSoakChild re-execs the test binary as a victim daemon in dir and
// waits for its address file. Callers SIGKILL it via child.Process.Kill;
// the cleanup reaps it if the test bails out early, and the child exits by
// itself if this process dies first.
func startSoakChild(t *testing.T, dir string) *exec.Cmd {
	t.Helper()
	child := reexec.Command("TestSoakChildDaemon", soakDirEnv+"="+dir)
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := reexec.Start(child); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = child.Process.Kill()
		_ = child.Wait() // double Wait errors harmlessly after a clean reap
	})
	addrPath := filepath.Join(dir, "addr")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("soak child never wrote its address file")
		}
		if _, err := os.ReadFile(addrPath); err == nil {
			return child
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// soakAddr reads the child's current address; "" while the daemon is down
// makes the proxy's upstream dial fail fast, which the client retries.
func soakAddr(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, "addr"))
	if err != nil {
		return ""
	}
	return string(b)
}

// rankVia asks one engine for its converged ranking through the real
// client, with a deadline generous enough that n=soakN always gets the
// exact algorithm.
func rankVia(t *testing.T, s *serve.Server) Ranking {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c, err := New(Config{BaseURL: hs.URL, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rk, err := c.Rank(ctx, 2*time.Second)
	if err != nil {
		t.Fatalf("rank: %v", err)
	}
	return rk
}

// ackEquivalent compares two acks for the same batch, ignoring the replay
// marker and the client-side key annotation: a replayed ack must carry the
// original acknowledgement verbatim.
func ackEquivalent(a, b Ack) bool {
	a.Replayed, b.Replayed = false, false
	a.Key, b.Key = "", ""
	return a == b
}

// TestChaosSoakExactlyOnce is the exactly-once acceptance soak described
// in the package comment. It is deterministic under the fixed client and
// proxy seeds: the fault plan drawn for the k-th accepted connection and
// the client's key/jitter streams are pure functions of the seeds.
func TestChaosSoakExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	batches := soakBatchesShort
	if v := os.Getenv(soakBatchesEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 4 {
			t.Fatalf("bad %s=%q: want an integer >= 4", soakBatchesEnv, v)
		}
		batches = n
	}
	if batches*soakVotesPerBatch > soakPairs*soakM {
		t.Fatalf("%d batches exceed the %d unique votes the soak universe holds; raise soakN/soakM",
			batches, soakPairs*soakM)
	}

	// Fault-free baseline: same engine config, same votes, no network —
	// the ranking the chaos run must reproduce exactly.
	baseline, err := serve.New(soakServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		if _, err := baseline.Ingest(soakBatch(b)); err != nil {
			t.Fatalf("baseline ingest %d: %v", b, err)
		}
	}
	want := rankVia(t, baseline)
	if err := baseline.Close(); err != nil {
		t.Fatal(err)
	}

	// The chaos run: child daemon behind the fault-injecting proxy.
	dir := t.TempDir()
	child := startSoakChild(t, dir)
	proxy, err := netfault.NewProxy(func() string { return soakAddr(dir) }, netfault.Config{
		Seed:          7,
		ResetProb:     0.20,
		BlackholeProb: 0.05,
		HalfOpenProb:  0.05,
		DribbleProb:   0.05,
		Latency:       2 * time.Millisecond,
		FaultAfter:    256,
		DribbleDelay:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore errcheck test teardown of the proxy listener; assertions already ran on end-to-end state
		_ = proxy.Close()
	}()
	c, err := New(Config{
		BaseURL:        "http://" + proxy.Addr(),
		Seed:           42,
		MaxAttempts:    60,
		BaseBackoff:    10 * time.Millisecond,
		MaxBackoff:     500 * time.Millisecond,
		AttemptTimeout: time.Second,
		// No keep-alive pooling: every attempt opens a fresh connection and
		// draws a fresh fault plan, so the soak exercises far more faults
		// than a handful of long-lived pooled connections would.
		HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]string, batches)
	acks := make([]Ack, batches)
	submit := func(b int) (Ack, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		defer cancel()
		return c.SubmitVotesKeyed(ctx, keys[b], soakBatch(b))
	}
	deliver := func(b int) {
		keys[b] = c.NewKey()
		ack, err := submit(b)
		if err != nil {
			t.Fatalf("batch %d never acked (proxy: %s): %v", b, proxy.Stats(), err)
		}
		acks[b] = ack
	}

	half := batches / 2
	for b := 0; b < half; b++ {
		deliver(b)
	}

	// In-process replay: resubmitting an acked key must return the
	// original ack from the daemon's window, not re-apply the batch.
	if r, err := submit(half - 1); err != nil {
		t.Fatalf("in-process replay: %v", err)
	} else if !r.Replayed || !ackEquivalent(r, acks[half-1]) {
		t.Fatalf("in-process replay: got %+v, want replayed copy of %+v", r, acks[half-1])
	}

	// SIGKILL mid-soak: the next batch is submitted INTO the outage, so
	// its retries span daemon death, restart, and journal replay.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "addr")); err != nil {
		t.Fatal(err)
	}
	keys[half] = c.NewKey()
	type outcome struct {
		ack Ack
		err error
	}
	mid := make(chan outcome, 1)
	go func() {
		ack, err := submit(half)
		mid <- outcome{ack, err}
	}()
	time.Sleep(300 * time.Millisecond) // let retries hit the dead daemon
	_ = child.Wait()                   // reap before the successor starts
	child = startSoakChild(t, dir)
	select {
	case o := <-mid:
		if o.err != nil {
			t.Fatalf("batch %d lost across the restart (proxy: %s): %v", half, proxy.Stats(), o.err)
		}
		acks[half] = o.ack
	case <-time.After(2 * time.Minute):
		t.Fatalf("batch %d still unacked long after the restart (proxy: %s)", half, proxy.Stats())
	}

	// Cross-restart replay: a key acked by the daemon's FIRST life must
	// replay from the restarted daemon's recovered ack window.
	if r, err := submit(2); err != nil {
		t.Fatalf("cross-restart replay: %v", err)
	} else if !r.Replayed || !ackEquivalent(r, acks[2]) {
		t.Fatalf("cross-restart replay: got %+v, want replayed copy of %+v", r, acks[2])
	}

	for b := half + 1; b < batches; b++ {
		deliver(b)
	}

	// Exactly-once sweep: EVERY key of the soak replays its original ack;
	// any re-application or forgotten ack fails here by construction.
	for b := 0; b < batches; b++ {
		r, err := submit(b)
		if err != nil {
			t.Fatalf("sweep replay of batch %d: %v", b, err)
		}
		if !r.Replayed || !ackEquivalent(r, acks[b]) {
			t.Fatalf("sweep replay of batch %d: got %+v, want replayed copy of %+v", b, r, acks[b])
		}
	}

	// Converged ranking through the faulty proxy.
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	got, err := c.Rank(rctx, 2*time.Second)
	rcancel()
	if err != nil {
		t.Fatalf("rank through proxy: %v", err)
	}
	if !slices.Equal(got.Ranking, want.Ranking) {
		t.Fatalf("chaos ranking diverged from the fault-free run:\n got %v (%s)\nwant %v (%s)",
			got.Ranking, got.Algorithm, want.Ranking, want.Algorithm)
	}
	if got.Votes != batches*soakVotesPerBatch {
		t.Fatalf("daemon holds %d votes, want %d", got.Votes, batches*soakVotesPerBatch)
	}

	// Offline verification: kill the daemon and recover its journal into a
	// fresh engine. One acked batch <=> one journal record, every vote
	// unique, so these three checks pin zero loss and zero double-apply.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = child.Wait()
	offCfg := soakServeConfig()
	offCfg.JournalPath = filepath.Join(dir, "wal")
	off, err := serve.New(offCfg)
	if err != nil {
		t.Fatalf("offline recovery: %v", err)
	}
	if rec := off.Recovered(); rec.Records != batches {
		t.Fatalf("journal holds %d batch records, want exactly %d (loss or double-apply): %s",
			rec.Records, batches, rec)
	}
	if n := off.VoteCount(); n != batches*soakVotesPerBatch {
		t.Fatalf("recovered %d votes, want %d", n, batches*soakVotesPerBatch)
	}
	if st := off.StatsSnapshot(); st.Duplicates != 0 {
		t.Fatalf("recovery deduplicated %d votes; some batch was journaled twice", st.Duplicates)
	}
	offRank := rankVia(t, off)
	if !slices.Equal(offRank.Ranking, want.Ranking) {
		t.Fatalf("post-recovery ranking diverged from the fault-free run:\n got %v\nwant %v",
			offRank.Ranking, want.Ranking)
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}

	if path := os.Getenv(soakSummaryEnv); path != "" {
		stats := proxy.Stats()
		summary, err := json.MarshalIndent(map[string]any{
			"batches":         batches,
			"votes":           batches * soakVotesPerBatch,
			"faults_injected": stats,
			"fault_summary":   stats.String(),
			"ranking":         want.Ranking,
			"algorithm":       want.Algorithm,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, summary, 0o644); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
	}
}
