// Package netfault injects deterministic, seeded network faults between a
// client and the crowdrankd daemon: extra latency, bandwidth throttling,
// mid-body connection resets, black holes (bytes vanish, nothing answers),
// slow-loris dribble, half-open closes, and connect-time drops.
//
// The paper's budget model assumes every purchased vote lands in the
// aggregation exactly once; in a deployed non-interactive pipeline the
// lossy hop is the network between collectors and the daemon. This package
// makes that hop hostile on purpose, so the retry/idempotency contract
// between internal/client and internal/serve is a tested guarantee rather
// than an assumption.
//
// Faults are planned per connection from a seeded PCG stream keyed by the
// accept index, so a fixed Config.Seed yields the same fault sequence on
// every run — the chaos soak in internal/client is deterministic, not
// flaky. Two entry points share the machinery:
//
//   - Wrap turns any net.Listener into one whose accepted connections
//     misbehave.
//   - NewProxy listens on a loopback port and forwards to a target address
//     through the same fault plans (used by tests to sit between a real
//     client and a real daemon, surviving daemon restarts via the target
//     callback).
package netfault

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Fault kinds drawn per connection. At most one byte-triggered fault is
// active on a connection; latency and bandwidth shaping apply regardless.
const (
	faultNone = iota
	// faultDrop closes the connection (with RST where the transport
	// allows) before a single byte is exchanged.
	faultDrop
	// faultReset closes the connection with RST after the triggered
	// direction has carried plan.after bytes — mid-request-body or
	// mid-response, depending on the drawn direction.
	faultReset
	// faultBlackhole swallows the triggered direction after plan.after
	// bytes: writes claim success and vanish, reads stall until the
	// connection is closed. The peer only escapes via its own timeout.
	faultBlackhole
	// faultHalfOpen shuts down the write side after plan.after bytes,
	// leaving the connection half-open: the peer sees EOF mid-stream while
	// its own writes still appear to succeed.
	faultHalfOpen
	// faultDribble forwards the triggered direction one byte at a time
	// with a delay between bytes — a slow-loris sender or a stalling
	// responder.
	faultDribble
)

// errInjected marks every error produced by an injected fault, so test
// assertions can tell injected damage from real network trouble.
var errInjected = errors.New("netfault: injected fault")

// Config selects the fault mix. Probabilities are per connection and sum
// to at most 1 (validated); the remainder is a healthy connection. The
// zero value injects nothing.
type Config struct {
	// Seed drives every random draw. The same seed and accept order
	// reproduce the same fault plans; required non-zero when any
	// probability is set, per the repo's determinism conventions.
	Seed uint64

	// DropProb closes connections at accept/dial time, before any byte.
	DropProb float64
	// ResetProb injects a mid-stream RST after FaultAfter-bounded bytes.
	ResetProb float64
	// BlackholeProb swallows one direction after FaultAfter-bounded bytes.
	BlackholeProb float64
	// HalfOpenProb closes the write side only, after FaultAfter-bounded
	// bytes.
	HalfOpenProb float64
	// DribbleProb slow-dribbles one direction byte-by-byte.
	DribbleProb float64

	// Latency adds a uniform [0, Latency) delay before each forwarded
	// chunk; 0 adds none.
	Latency time.Duration
	// BytesPerSec throttles forwarding bandwidth per direction; 0 is
	// unlimited.
	BytesPerSec int
	// FaultAfter bounds the byte count at which a byte-triggered fault
	// fires (drawn uniformly from [1, FaultAfter]); 0 means 4096.
	FaultAfter int
	// DribbleDelay is the per-byte delay while dribbling; 0 means 2ms.
	DribbleDelay time.Duration
}

func (c Config) validate() error {
	p := c.DropProb + c.ResetProb + c.BlackholeProb + c.HalfOpenProb + c.DribbleProb
	for _, q := range []float64{c.DropProb, c.ResetProb, c.BlackholeProb, c.HalfOpenProb, c.DribbleProb} {
		if q < 0 || q > 1 {
			return fmt.Errorf("netfault: fault probability %v outside [0,1]", q)
		}
	}
	if p > 1 {
		return fmt.Errorf("netfault: fault probabilities sum to %v > 1", p)
	}
	if p > 0 && c.Seed == 0 {
		return fmt.Errorf("netfault: a non-zero Seed is required when faults are enabled (determinism contract)")
	}
	if c.Latency < 0 || c.BytesPerSec < 0 || c.FaultAfter < 0 || c.DribbleDelay < 0 {
		return fmt.Errorf("netfault: latency, bandwidth, and trigger settings must be non-negative")
	}
	return nil
}

func (c Config) faultAfter() int {
	if c.FaultAfter == 0 {
		return 4096
	}
	return c.FaultAfter
}

func (c Config) dribbleDelay() time.Duration {
	if c.DribbleDelay == 0 {
		return 2 * time.Millisecond
	}
	return c.DribbleDelay
}

// Stats counts injected faults across a listener's or proxy's lifetime.
// All fields are monotonic totals.
type Stats struct {
	Conns      uint64 `json:"conns"`
	Drops      uint64 `json:"drops"`
	Resets     uint64 `json:"resets"`
	Blackholes uint64 `json:"blackholes"`
	HalfOpens  uint64 `json:"half_opens"`
	Dribbles   uint64 `json:"dribbles"`
}

func (s Stats) String() string {
	return fmt.Sprintf("conns=%d drops=%d resets=%d blackholes=%d halfopens=%d dribbles=%d",
		s.Conns, s.Drops, s.Resets, s.Blackholes, s.HalfOpens, s.Dribbles)
}

// counters is the shared mutable form of Stats.
type counters struct {
	conns, drops, resets, blackholes, halfOpens, dribbles atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Conns:      c.conns.Load(),
		Drops:      c.drops.Load(),
		Resets:     c.resets.Load(),
		Blackholes: c.blackholes.Load(),
		HalfOpens:  c.halfOpens.Load(),
		Dribbles:   c.dribbles.Load(),
	}
}

// plan is one connection's drawn behavior, fixed at accept time so the
// connection's fate is a pure function of (seed, accept index).
type plan struct {
	kind int
	// onRead applies the byte-triggered fault to the Read (client-to-
	// server) direction; otherwise it fires on Write (server-to-client) —
	// the direction split is what distinguishes "request lost before the
	// daemon saw it" from "ack lost after the daemon applied it".
	onRead       bool
	after        int
	latency      time.Duration
	bytesPerSec  int
	dribbleDelay time.Duration
}

// newPlan draws the plan for accept index idx. Each connection gets its
// own PCG stream so plans do not depend on how prior connections
// interleaved their reads and writes.
func newPlan(cfg Config, idx uint64) (plan, *rand.Rand) {
	rng := rand.New(rand.NewPCG(cfg.Seed, idx^0x6e65746661756c74)) // "netfault"
	p := plan{
		kind:         faultNone,
		after:        1 + rng.IntN(cfg.faultAfter()),
		onRead:       rng.IntN(2) == 0,
		latency:      cfg.Latency,
		bytesPerSec:  cfg.BytesPerSec,
		dribbleDelay: cfg.dribbleDelay(),
	}
	u := rng.Float64()
	for _, choice := range []struct {
		prob float64
		kind int
	}{
		{cfg.DropProb, faultDrop},
		{cfg.ResetProb, faultReset},
		{cfg.BlackholeProb, faultBlackhole},
		{cfg.HalfOpenProb, faultHalfOpen},
		{cfg.DribbleProb, faultDribble},
	} {
		if u < choice.prob {
			p.kind = choice.kind
			break
		}
		u -= choice.prob
	}
	return p, rng
}

// rstClose closes c so the peer sees a hard reset where the transport
// supports it: SO_LINGER(0) on TCP makes Close emit RST instead of FIN.
func rstClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		//lint:ignore errcheck best-effort fault realism: if linger cannot be set the close below still injects the failure, just as FIN instead of RST
		_ = tc.SetLinger(0)
	}
	//lint:ignore errcheck the connection is being destroyed on purpose; the peer observing the failure is the point
	_ = c.Close()
}

// conn wraps one accepted connection with a fault plan. Reads carry the
// client-to-server direction, writes the server-to-client direction; the
// byte-triggered fault fires on whichever direction the plan selected.
type conn struct {
	net.Conn
	plan  plan
	rng   *rand.Rand // guarded by rngMu: Read and Write race in net/http
	rngMu sync.Mutex
	stats *counters

	readBytes  atomic.Int64
	writeBytes atomic.Int64
	tripped    atomic.Bool

	// blackholed is closed when the blackhole fires; reads in the
	// swallowed direction block on it until Close.
	blackholeOnce sync.Once
	blackholed    chan struct{}
	closeOnce     sync.Once
	closed        chan struct{}
}

func newConn(inner net.Conn, p plan, stats *counters, rng *rand.Rand) *conn {
	return &conn{
		Conn:       inner,
		plan:       p,
		rng:        rng,
		stats:      stats,
		blackholed: make(chan struct{}),
		closed:     make(chan struct{}),
	}
}

// shape applies latency and bandwidth pacing for a chunk of n bytes.
func (c *conn) shape(n int) {
	if c.plan.latency > 0 {
		c.rngMu.Lock()
		d := time.Duration(c.rng.Int64N(int64(c.plan.latency)))
		c.rngMu.Unlock()
		c.sleep(d)
	}
	if c.plan.bytesPerSec > 0 && n > 0 {
		c.sleep(time.Duration(float64(n) / float64(c.plan.bytesPerSec) * float64(time.Second)))
	}
}

// sleep waits for d or until the connection is closed, so shaping can
// never pin a closed connection's goroutine.
func (c *conn) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closed:
	}
}

// trigger fires the plan's byte-triggered fault once total bytes in the
// faulted direction pass the threshold. It returns a non-nil error when
// the caller must abort the current operation.
func (c *conn) trigger() error {
	if c.tripped.Swap(true) {
		return nil
	}
	switch c.plan.kind {
	case faultReset:
		c.stats.resets.Add(1)
		rstClose(c.Conn)
		return fmt.Errorf("connection reset after %d bytes: %w", c.plan.after, errInjected)
	case faultBlackhole:
		c.stats.blackholes.Add(1)
		c.blackholeOnce.Do(func() { close(c.blackholed) })
	case faultHalfOpen:
		c.stats.halfOpens.Add(1)
		if tc, ok := c.Conn.(*net.TCPConn); ok {
			//lint:ignore errcheck best-effort half-open: on failure the connection simply stays healthy, which the soak tolerates
			_ = tc.CloseWrite()
		}
	case faultDribble:
		c.stats.dribbles.Add(1)
	}
	return nil
}

// pastTrigger reports whether the byte-triggered fault applies to this
// direction and has been (or is now being) crossed.
func (c *conn) pastTrigger(isRead bool, total int64) bool {
	if c.plan.kind == faultNone || c.plan.kind == faultDrop || c.plan.onRead != isRead {
		return false
	}
	return total >= int64(c.plan.after)
}

func (c *conn) Read(b []byte) (int, error) {
	if c.tripped.Load() && c.plan.onRead && c.plan.kind == faultBlackhole {
		return c.blackholeWait()
	}
	n, err := c.Conn.Read(b)
	c.shape(n)
	total := c.readBytes.Add(int64(n))
	if c.pastTrigger(true, total) {
		if terr := c.trigger(); terr != nil {
			return 0, terr
		}
		if c.plan.kind == faultBlackhole {
			// The bytes just read fall into the hole too.
			return c.blackholeWait()
		}
	}
	return n, err
}

// blackholeWait swallows a read: it blocks until the connection closes,
// then reports the injected loss. Nothing read after the trigger is ever
// delivered.
func (c *conn) blackholeWait() (int, error) {
	<-c.closed
	return 0, fmt.Errorf("read black-holed after %d bytes: %w", c.plan.after, errInjected)
}

func (c *conn) Write(b []byte) (int, error) {
	if c.tripped.Load() && !c.plan.onRead {
		switch c.plan.kind {
		case faultBlackhole:
			// Writes vanish but claim success — the sender believes the
			// bytes left, exactly like a peer that stopped reading behind a
			// dead NAT entry.
			return len(b), nil
		case faultReset:
			return 0, fmt.Errorf("write after injected reset: %w", errInjected)
		case faultDribble:
			return c.dribble(b)
		}
	}
	n, err := c.Conn.Write(b)
	c.shape(n)
	total := c.writeBytes.Add(int64(n))
	if c.pastTrigger(false, total) {
		if terr := c.trigger(); terr != nil {
			return n, terr
		}
	}
	return n, err
}

// dribble forwards b one byte at a time with the plan's delay — the
// sender's view is a connection that is alive but nearly stalled.
func (c *conn) dribble(b []byte) (int, error) {
	for i := range b {
		c.sleep(c.plan.dribbleDelay)
		select {
		case <-c.closed:
			return i, fmt.Errorf("dribble interrupted by close: %w", errInjected)
		default:
		}
		if _, err := c.Conn.Write(b[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(b), nil
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Listener wraps an inner listener, applying a drawn fault plan to every
// accepted connection. Create with Wrap.
type Listener struct {
	inner net.Listener
	cfg   Config
	idx   atomic.Uint64
	stats counters
}

// Wrap returns a Listener injecting cfg's faults into every accepted
// connection. It validates cfg and panics on an invalid one only via the
// returned error — callers get a nil Listener and must not serve.
func Wrap(inner net.Listener, cfg Config) (*Listener, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Listener{inner: inner, cfg: cfg}, nil
}

// Accept waits for the next connection and arms its fault plan. A
// connection drawn for a connect-time drop is reset immediately and the
// next one is accepted — the caller never sees dropped connections.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		inner, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		p, rng := newPlan(l.cfg, l.idx.Add(1))
		l.stats.conns.Add(1)
		if p.kind == faultDrop {
			l.stats.drops.Add(1)
			rstClose(inner)
			continue
		}
		if p.kind == faultDribble {
			// A read-side dribble means the *peer's* writes crawl; realized
			// here by dribbling our writes only, so map read-dribbles onto
			// the write side to keep the single-conn wrapper simple.
			p.onRead = false
		}
		return newConn(inner, p, &l.stats, rng), nil
	}
}

// Close closes the inner listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Stats returns the fault totals so far.
func (l *Listener) Stats() Stats { return l.stats.snapshot() }

// Proxy is a loopback TCP proxy that forwards every accepted connection
// to a target address through the fault machinery. Tests put it between a
// real client and a real daemon; the target is a callback so the daemon
// can be killed and restarted on a new port mid-soak.
type Proxy struct {
	ln     *Listener
	target func() string
	wg     sync.WaitGroup
	done   chan struct{}
}

// NewProxy listens on 127.0.0.1:0 and forwards to target() with cfg's
// faults applied on the client side of each connection.
func NewProxy(target func() string, cfg Config) (*Proxy, error) {
	if target == nil {
		return nil, fmt.Errorf("netfault: proxy needs a target callback")
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netfault: proxy listen: %w", err)
	}
	ln, err := Wrap(raw, cfg)
	if err != nil {
		//lint:ignore errcheck error-path cleanup of a listener that accepted nothing; the config error is already being returned
		_ = raw.Close()
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, done: make(chan struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// serve accepts until the proxy closes. Each connection is pumped to a
// freshly dialed target; a dial failure (daemon down mid-restart) resets
// the client, which is exactly the retryable condition the client's
// backoff exists for.
func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
			}
			return // listener broke; the soak's client will time out loudly
		}
		p.wg.Add(1)
		go p.pump(client)
	}
}

// pump shuttles bytes between the (fault-wrapped) client connection and
// the upstream until either side ends or the proxy closes.
func (p *Proxy) pump(client net.Conn) {
	defer p.wg.Done()
	defer func() {
		//lint:ignore errcheck the pump is tearing the connection down; a double close error carries no information
		_ = client.Close()
	}()
	upstream, err := net.DialTimeout("tcp", p.target(), 2*time.Second)
	if err != nil {
		rstClose(client)
		return
	}
	defer func() {
		//lint:ignore errcheck teardown of the upstream half; the client side already observed the outcome
		_ = upstream.Close()
	}()
	ends := make(chan struct{}, 2)
	copyDir := func(dst, src net.Conn) {
		//lint:ignore errcheck a copy error is a connection ending (often by injected fault); the soak asserts on end-to-end state, not per-conn errors
		_, _ = io.Copy(dst, src)
		// Unblock the opposite copy: without closing both ends the other
		// direction can sit in Read forever on a half-dead pair.
		ends <- struct{}{}
	}
	go copyDir(upstream, client)
	go copyDir(client, upstream)
	select {
	case <-ends:
	case <-p.done:
	}
	rstClose(client)
	//lint:ignore errcheck teardown; see above
	_ = upstream.Close()
	// Reap the second copier before returning so Close's Wait sees it.
	select {
	case <-ends:
	case <-p.done:
	}
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL for HTTP clients.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Stats returns the fault totals injected so far.
func (p *Proxy) Stats() Stats { return p.ln.Stats() }

// Close stops accepting, tears down in-flight connections, and waits for
// the pumps to exit.
func (p *Proxy) Close() error {
	close(p.done)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}
