package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{},                                      // missing -n/-m
		{"-n", "5"},                             // missing -m
		{"-n", "5", "-m", "2", "-fsync", "ssd"}, // unknown policy
		{"-n", "5", "-m", "2", "-write-timeout", "1s"}, // below the rank deadline cap
		{"-n", "5", "-m", "2", "-write-timeout", "1m"}, // equal to the cap is still unsafe
		{"-n", "5", "-m", "2", "-snapshot-keep", "0"},  // would prune the newest snapshot
		{"-n", "5", "-m", "2", "-addr", "127.0.0.1:0", // node following itself
			"-replicate-from", "http://x:1", "-advertise", "http://x:1"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunRefusesUnwritableJournalDir pins the startup contract: a journal
// directory the daemon cannot write to must fail run() (non-zero exit in
// main) before the listener ever binds, not on the first acked ingest.
func TestRunRefusesUnwritableJournalDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-n", "5", "-m", "2",
		"-addr", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "wal"),
	}, &out)
	if err == nil {
		t.Fatal("run should refuse an unwritable journal directory")
	}
	if !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("error should name the unwritable directory, got: %v", err)
	}
}

// TestDaemonLifecycle boots the daemon on an ephemeral port, ingests and
// ranks over HTTP, then delivers SIGTERM and watches the graceful shutdown
// reach the final journal sync.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon lifecycle test skipped in -short")
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-n", "5", "-m", "2",
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-journal", filepath.Join(dir, "wal"),
			"-seed", "7",
			"-drain", "5s",
			"-pprof", "127.0.0.1:0",
		}, out)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote %s; output:\n%s", addrFile, out.String())
		}
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = string(b)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	base := "http://" + addr

	body := strings.NewReader(`{"votes":[{"worker":0,"i":0,"j":1,"prefers_i":true}]}`)
	resp, err := http.Post(base+"/votes", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp2, err := http.Get(base + "/rank?deadline_ms=500")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("rank status %d", resp2.StatusCode)
	}
	var rr struct {
		Ranking   []int  `json:"ranking"`
		Algorithm string `json:"algorithm"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Ranking) != 5 || rr.Algorithm == "" {
		t.Fatalf("unexpected rank response %+v", rr)
	}

	// The exposition is served from the API port and already carries the
	// traffic just generated.
	resp3, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metricsBody bytes.Buffer
	if _, err := metricsBody.ReadFrom(resp3.Body); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp3.Body.Close() }()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp3.StatusCode)
	}
	for _, want := range []string{
		"# TYPE crowdrankd_ingest_batches_total counter",
		"crowdrankd_ingest_votes_total{result=\"accepted\"} 1",
		"crowdrankd_rank_seconds_count 1",
		"crowdrankd_journal_appends_total 1",
	} {
		if !strings.Contains(metricsBody.String(), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, metricsBody.String())
		}
	}

	// pprof runs on its own ephemeral listener; its address is only known
	// from the startup log line.
	pprofBase := ""
	deadline = time.Now().Add(10 * time.Second)
	for pprofBase == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged the pprof address; output:\n%s", out.String())
		}
		if s := out.String(); strings.Contains(s, "pprof on http://") {
			rest := s[strings.Index(s, "pprof on ")+len("pprof on "):]
			pprofBase = strings.TrimSpace(strings.Split(rest, "\n")[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	resp4, err := http.Get(pprofBase)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp4.Body.Close() }()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d at %s", resp4.StatusCode, pprofBase)
	}

	// run installed the handler via signal.NotifyContext, so a self-SIGTERM
	// exercises the real shutdown path.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "journal synced") {
		t.Fatalf("shutdown should report the final journal sync; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "recovery: replayed 0 records from 1 segments (clean)") {
		t.Fatalf("startup should log ReplayStats; output:\n%s", out.String())
	}
}

// TestDaemonWarmStandbyLifecycle boots a leader and a follower daemon
// in-process, replicates ingest across them, promotes the follower over
// HTTP, and verifies the role change is visible on /healthz before both
// shut down on one self-delivered SIGTERM.
func TestDaemonWarmStandbyLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon lifecycle test skipped in -short")
	}
	dir := t.TempDir()
	out := &syncBuffer{}
	done := make(chan error, 2)
	startDaemon := func(name string, extra ...string) string {
		t.Helper()
		addrFile := filepath.Join(dir, name+".addr")
		args := append([]string{
			"-n", "5", "-m", "2",
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-journal", filepath.Join(dir, name+".wal"),
			"-seed", "7",
			"-drain", "5s",
		}, extra...)
		go func() { done <- run(args, out) }()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if b, err := os.ReadFile(addrFile); err == nil {
				return "http://" + string(b)
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %s never wrote %s; output:\n%s", name, addrFile, out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitBody := func(url, want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(url)
			if err == nil {
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body) //nolint:errcheck // retried below
				_ = resp.Body.Close()          //nolint:errcheck // test poll loop
				if strings.Contains(buf.String(), want) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never contained %q; output:\n%s", url, want, out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	leaderURL := startDaemon("leader")
	resp, err := http.Post(leaderURL+"/votes", "application/json",
		strings.NewReader(`{"votes":[{"worker":0,"i":0,"j":1,"prefers_i":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	followerURL := startDaemon("follower", "-replicate-from", leaderURL)
	waitBody(followerURL+"/healthz", `"lag":0`)
	waitBody(followerURL+"/healthz", `"role":"follower"`)
	// The replicated vote is readable on the standby.
	waitBody(followerURL+"/rank?deadline_ms=500", `"ranking"`)

	// Operator failover: promote the standby over HTTP.
	promote, err := http.Post(followerURL+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = promote.Body.Close() }()
	if promote.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", promote.StatusCode)
	}
	waitBody(followerURL+"/healthz", `"role":"leader"`)
	waitBody(followerURL+"/healthz", `"epoch":1`)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("graceful shutdown failed: %v\noutput:\n%s", err, out.String())
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("daemons did not shut down; output:\n%s", out.String())
		}
	}
}

// syncBuffer makes the daemon's log writes race-free against test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
