package netfault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections from ln and echoes bytes back until each
// connection ends. It stops when ln is closed.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	done := make(chan struct{})
	t.Cleanup(func() {
		if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Logf("closing echo listener: %v", err)
		}
		<-done
	})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close() //nolint:errcheck
				//lint:ignore errcheck test echo loop: a copy error just means the connection ended
				_, _ = io.Copy(c, c)
			}()
		}
	}()
}

func TestParseSpecFull(t *testing.T) {
	cfg, err := ParseSpec("seed=7,latency=5ms,reset=0.1,blackhole=0.02,halfopen=0.03,dribble=0.05,drop=0.02,bps=65536,after=2048,dribbledelay=1ms")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Config{
		Seed: 7, DropProb: 0.02, ResetProb: 0.1, BlackholeProb: 0.02,
		HalfOpenProb: 0.03, DribbleProb: 0.05,
		Latency: 5 * time.Millisecond, BytesPerSec: 65536,
		FaultAfter: 2048, DribbleDelay: time.Millisecond,
	}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"", "empty"},
		{"seed=7,typo=1", "unknown"},
		{"seed=abc", "seed=abc"},
		{"reset=0.5", "Seed"},                    // faults without a seed
		{"seed=1,reset=0.9,drop=0.9", "sum"},     // probabilities over 1
		{"seed=1,reset=-0.1", "outside"},         // negative probability
		{"seed=1,reset=0.1,latency=-1s", "non-"}, // negative latency
		{"seed=1;reset=0.1", "invalid syntax"},   // wrong separator
	}
	for _, tc := range cases {
		if _, err := ParseSpec(tc.spec); err == nil {
			t.Errorf("ParseSpec(%q): want error containing %q, got nil", tc.spec, tc.wantSub)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseSpec(%q) = %v, want substring %q", tc.spec, err, tc.wantSub)
		}
	}
}

func TestPlanDeterministicPerIndex(t *testing.T) {
	cfg := Config{Seed: 99, ResetProb: 0.3, BlackholeProb: 0.2, DribbleProb: 0.2, FaultAfter: 512}
	for idx := uint64(1); idx <= 64; idx++ {
		p1, _ := newPlan(cfg, idx)
		p2, _ := newPlan(cfg, idx)
		if p1 != p2 {
			t.Fatalf("idx %d: plans differ across runs: %+v vs %+v", idx, p1, p2)
		}
		if p1.after < 1 || p1.after > 512 {
			t.Fatalf("idx %d: after=%d outside [1,512]", idx, p1.after)
		}
	}
}

func TestPlanMixMatchesProbabilities(t *testing.T) {
	cfg := Config{Seed: 7, ResetProb: 0.5}
	resets := 0
	for idx := uint64(1); idx <= 200; idx++ {
		p, _ := newPlan(cfg, idx)
		if p.kind == faultReset {
			resets++
		} else if p.kind != faultNone {
			t.Fatalf("idx %d: drew kind %d with only reset configured", idx, p.kind)
		}
	}
	if resets < 60 || resets > 140 {
		t.Fatalf("reset draws = %d/200 for prob 0.5; seeded stream badly skewed", resets)
	}
}

// TestProxyPassThrough proves a fault-free proxy is transparent: bytes go
// through unmodified in both directions.
func TestProxyPassThrough(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, raw)
	p, err := NewProxy(func() string { return raw.Addr().String() }, Config{})
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close() //nolint:errcheck

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("crowdrank"), 1000)
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write through proxy: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read back through proxy: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echoed bytes corrupted by fault-free proxy")
	}
	if s := p.Stats(); s.Conns != 1 || s.Resets+s.Drops+s.Blackholes+s.HalfOpens+s.Dribbles != 0 {
		t.Fatalf("fault-free proxy reported faults: %s", s)
	}
}

// TestProxyReset proves a reset plan terminates the connection mid-stream:
// a large echo round-trip cannot complete.
func TestProxyReset(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, raw)
	p, err := NewProxy(func() string { return raw.Addr().String() }, Config{Seed: 3, ResetProb: 1, FaultAfter: 64})
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close() //nolint:errcheck

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1<<20)
	_, werr := c.Write(payload)
	var rerr error
	if werr == nil {
		_, rerr = io.ReadFull(c, make([]byte, len(payload)))
	}
	if werr == nil && rerr == nil {
		t.Fatal("1MiB echo completed despite ResetProb=1 after ≤64 bytes")
	}
	if s := p.Stats(); s.Resets != 1 {
		t.Fatalf("stats = %s, want exactly one reset", s)
	}
}

// TestListenerDrop proves connect-time drops never surface to Accept and
// reset the client instead.
func TestListenerDrop(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Wrap(raw, Config{Seed: 5, DropProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		if c, err := ln.Accept(); err == nil {
			t.Errorf("Accept returned a connection (%v) under DropProb=1", c.RemoteAddr())
			c.Close() //nolint:errcheck
		}
	}()

	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			// The injected RST can land during the handshake itself; a failed
			// dial IS the drop being observed.
			continue
		}
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// The drop closes the server side; this read must fail, not hang.
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("dial %d: read succeeded on a dropped connection", i)
		}
		c.Close() //nolint:errcheck
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	<-accepted
	s := ln.Stats()
	if s.Drops != 3 || s.Conns != 3 {
		t.Fatalf("stats = %s, want conns=3 drops=3", s)
	}
}

// TestProxyDribble proves dribbled bytes still arrive intact, just slowly,
// so a patient peer completes while an impatient one times out.
func TestProxyDribble(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, raw)
	cfg := Config{Seed: 11, DribbleProb: 1, FaultAfter: 1, DribbleDelay: 100 * time.Microsecond}
	p, err := NewProxy(func() string { return raw.Addr().String() }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	msg := []byte("pairwise ranking under budget constraints")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read dribbled echo: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("dribbled bytes corrupted")
	}
	// The proxy counts the fault after the write that crosses FaultAfter
	// returns, which can be after the echo already reached the client.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Dribbles == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := p.Stats(); s.Dribbles != 1 {
		t.Fatalf("stats = %s, want one dribble", s)
	}
}

// TestProxyBlackhole proves a black-holed connection stalls (no data, no
// error) until the peer's own deadline fires — the failure mode a client
// per-attempt timeout exists for.
func TestProxyBlackhole(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, raw)
	p, err := NewProxy(func() string { return raw.Addr().String() }, Config{Seed: 2, BlackholeProb: 1, FaultAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	// The hole swallows the triggered direction only after the triggering
	// chunk passes, so the first echo may still arrive; within a few
	// round-trips one read must stall to its deadline.
	stalled := false
	for i := 0; i < 5 && !stalled; i++ {
		if err := c.SetDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("hello?")); err != nil {
			// A write error is acceptable: the hole may already have tripped.
			t.Logf("round %d: write into black hole: %v", i, err)
		}
		if _, err := io.ReadFull(c, make([]byte, 6)); err != nil {
			var nerr net.Error
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Fatalf("round %d: want a deadline timeout from the stalled read, got %v", i, err)
			}
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("five round-trips completed despite BlackholeProb=1")
	}
	if s := p.Stats(); s.Blackholes != 1 {
		t.Fatalf("stats = %s, want one blackhole", s)
	}
}

// TestProxyHalfOpen proves a half-open plan ends the stream without a full
// close: the client observes EOF (or a reset from teardown) within its
// deadline rather than hanging.
func TestProxyHalfOpen(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, raw)
	p, err := NewProxy(func() string { return raw.Addr().String() }, Config{Seed: 4, HalfOpenProb: 1, FaultAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(bytes.Repeat([]byte("y"), 4096)); err != nil {
		t.Logf("write on half-open conn: %v", err)
	}
	// Drain until the stream ends; it must end, not hang to the deadline.
	//lint:ignore errcheck the terminal error is the assertion target, the byte count is irrelevant
	_, rerr := io.Copy(io.Discard, c)
	var nerr net.Error
	if errors.As(rerr, &nerr) && nerr.Timeout() {
		t.Fatalf("half-open connection hung until deadline: %v", rerr)
	}
	if s := p.Stats(); s.HalfOpens != 1 {
		t.Fatalf("stats = %s, want one half-open", s)
	}
}

// TestProxyRetarget proves the target callback is consulted per connection,
// so a restarted daemon on a new port is reachable without proxy restart.
func TestProxyRetarget(t *testing.T) {
	mk := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		echoServer(t, ln)
		return ln
	}
	first := mk()
	second := mk()
	var target addrBox
	target.store(first.Addr().String())
	p, err := NewProxy(func() string { return target.load() }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	roundTrip := func(msg string) {
		t.Helper()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("echo via %s: %v", target.load(), err)
		}
	}
	roundTrip("before restart")
	target.store(second.Addr().String())
	roundTrip("after restart")
}

// addrBox is a tiny helper for the retarget test.
type addrBox struct {
	mu sync.Mutex
	v  string
}

func (a *addrBox) store(s string) { a.mu.Lock(); a.v = s; a.mu.Unlock() }
func (a *addrBox) load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
