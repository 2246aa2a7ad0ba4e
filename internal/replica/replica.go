// Package replica layers warm-standby replication over the crowdrankd
// serving engine: one leader accepts ingest and streams its journal to
// followers, which replay continuously into their own journal+snapshot
// store, serve reads, and stand ready for promotion.
//
// Failover is epoch-fenced. Every node carries a durably-stored epoch;
// POST /promote bumps it on the chosen follower, and any node holding the
// leader role that observes a higher epoch — on a stream request, an
// ingest carrying the X-Crowdrank-Epoch header, or a heartbeat — steps
// down and poisons its own journal (the same seam a disk fault uses), so
// a deposed leader can never acknowledge another batch. Combined with the
// idempotency ack window replicating inside the stream, a client retrying
// a keyed batch across a failover gets exactly-once application end to
// end: the batch lands on whichever node is leader, and a replay of the
// same key on the new leader answers from the replicated window.
//
// The paper's setting makes this worth the machinery: the crowdsourcing
// budget B is spent in one non-interactive round, so votes lost to a dead
// collector are money lost — a warm standby keeps the collection round
// alive through a machine failure with zero acknowledged-vote loss once
// the follower has caught up.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdrank/internal/serve"
)

// Header names of the replication protocol. Clients echo the highest
// epoch they have seen on every request, which is what fences a deposed
// leader that missed the promotion; follower 503s carry the leader hint
// clients re-route on.
const (
	// LeaderHeader carries the advertised base URL of the node believed
	// to be the current leader, on follower rejections and health answers.
	LeaderHeader = "X-Crowdrank-Leader"
	// EpochHeader carries the fencing epoch: nodes set it on responses,
	// clients replay the highest value seen on subsequent requests.
	EpochHeader = "X-Crowdrank-Epoch"
)

// Role is a node's current replication role.
type Role string

const (
	RoleLeader   Role = "leader"
	RoleFollower Role = "follower"
)

// ErrDeposed marks a node fenced out of the leader role by a higher
// epoch. It poisons the journal, so it also surfaces as the journal's
// poison cause on /healthz and in refused ingests.
var ErrDeposed = errors.New("replica: deposed by a higher epoch")

// heartbeatEvery is how often an idle leader stream emits a heartbeat
// frame (lag + epoch); the follower treats a stream silent for ~4
// heartbeats as dead and re-dials. Records need no interval: the stream
// wakes when the journal appends one. The package's tests shorten it in
// TestMain.
var heartbeatEvery = 500 * time.Millisecond

// Config configures a Node. Zero-valued fields take the documented
// defaults.
type Config struct {
	// Self is this node's advertised base URL (e.g. "http://10.0.0.1:8077"),
	// handed to clients as the leader hint when this node leads. Empty
	// omits the hint.
	Self string
	// Leader is the base URL to replicate from. Non-empty starts the node
	// as a follower of that URL; empty starts it as the leader.
	Leader string
	// EpochDir is the directory holding the durable epoch file. Empty
	// keeps the epoch in memory only — tests and in-memory nodes; any
	// journaled deployment should persist it (the daemon defaults it to
	// the journal directory).
	EpochDir string
	// MaxLag is the follower readiness threshold: /readyz answers ok only
	// while the follower is connected and at most this many records
	// behind the leader. 0 means the default 16.
	MaxLag uint64
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	c.Self = strings.TrimRight(strings.TrimSpace(c.Self), "/")
	c.Leader = strings.TrimRight(strings.TrimSpace(c.Leader), "/")
	if c.MaxLag == 0 {
		c.MaxLag = 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Leader != "" && c.Leader == c.Self {
		return c, fmt.Errorf("replica: node cannot replicate from itself (%s)", c.Self)
	}
	return c, nil
}

// Node is one replication-aware daemon: a serve.Server plus the
// leader/follower machinery. Create with Open, wire Handler into an HTTP
// server, stop with Close.
type Node struct {
	cfg   Config
	srv   *serve.Server
	inner http.Handler
	met   *metrics
	logf  func(string, ...any)
	hc    *http.Client

	// mu guards the fencing state: role, epoch, and the best-known leader
	// URL move together.
	mu        sync.Mutex
	role      Role
	epoch     uint64
	leaderURL string

	// Follower stream telemetry, written by the replication loop.
	leaderNext atomic.Uint64 // leader's next sequence as last heard
	connected  atomic.Bool   // stream currently attached
	resync     atomic.Bool   // fell behind leader compaction; operator must re-bootstrap

	bootstrapped bool // this Open installed a snapshot from the leader

	// ctx bounds replication: the follower loop and every leader stream
	// end when StopReplication or Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Open constructs the node: loads the durable epoch, bootstraps a fresh
// follower from the leader's snapshot when the local store is empty,
// builds the serving engine over the (possibly just-installed) journal,
// and — on followers — starts the replication loop. ctx bounds only the
// startup work (snapshot fetch, journal replay); the replication loop
// runs until Close.
func Open(ctx context.Context, cfg Config, scfg serve.Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var epoch uint64
	if cfg.EpochDir != "" {
		if epoch, err = LoadEpoch(cfg.EpochDir); err != nil {
			return nil, err
		}
	}
	n := &Node{
		cfg:       cfg,
		logf:      cfg.Logf,
		hc:        &http.Client{},
		role:      RoleLeader,
		epoch:     epoch,
		leaderURL: cfg.Self,
	}
	if cfg.Leader != "" {
		n.role = RoleFollower
		n.leaderURL = cfg.Leader
		if scfg.JournalPath != "" {
			if err := n.bootstrap(ctx, scfg.JournalPath); err != nil {
				return nil, err
			}
		}
	}
	srv, err := serve.NewContext(ctx, scfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.inner = srv.Handler()
	n.met = newMetrics(srv.Metrics(), n)
	if n.bootstrapped {
		n.met.bootstraps.Inc()
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	if n.Role() == RoleFollower {
		n.wg.Add(1)
		go n.replicate(n.ctx)
	}
	return n, nil
}

// Server exposes the underlying serving engine (rank, ingest, snapshot
// APIs in library form).
func (n *Node) Server() *serve.Server { return n.srv }

// Role returns the node's current replication role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current fencing epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// LeaderHint returns the best-known leader URL: the node itself while it
// leads, the upstream it follows otherwise, empty when a deposed node
// does not know who superseded it.
func (n *Node) LeaderHint() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderURL
}

// localNextSeq is the next journal sequence this node would write.
func (n *Node) localNextSeq() uint64 {
	if jnl := n.srv.Journal(); jnl != nil {
		return jnl.NextSeq()
	}
	return uint64(n.srv.StatsSnapshot().Batches)
}

// Lag is how many records the follower is behind the leader's last-heard
// position; 0 on the leader and before the first heartbeat.
func (n *Node) Lag() uint64 {
	if n.Role() != RoleFollower {
		return 0
	}
	ahead, local := n.leaderNext.Load(), n.localNextSeq()
	if ahead <= local {
		return 0
	}
	return ahead - local
}

// Status is the replication block of /healthz.
type Status struct {
	Role  Role   `json:"role"`
	Epoch uint64 `json:"epoch"`
	// Leader is the best-known leader URL (empty when a deposed node does
	// not know its successor).
	Leader string `json:"leader,omitempty"`
	// LocalNextSeq is this node's journal position; LeaderNextSeq the
	// leader's as last heard on the stream; Lag their distance.
	LocalNextSeq  uint64 `json:"local_next_seq"`
	LeaderNextSeq uint64 `json:"leader_next_seq,omitempty"`
	Lag           uint64 `json:"lag"`
	// Connected is true while the follower's replication stream is
	// attached; ResyncRequired means the leader compacted past this
	// follower's position and the data dir must be re-bootstrapped.
	Connected      bool `json:"connected"`
	ResyncRequired bool `json:"resync_required,omitempty"`
}

// Status assembles the current replication status.
func (n *Node) Status() Status {
	n.mu.Lock()
	role, epoch, leader := n.role, n.epoch, n.leaderURL
	n.mu.Unlock()
	return Status{
		Role:           role,
		Epoch:          epoch,
		Leader:         leader,
		LocalNextSeq:   n.localNextSeq(),
		LeaderNextSeq:  n.leaderNext.Load(),
		Lag:            n.Lag(),
		Connected:      n.connected.Load(),
		ResyncRequired: n.resync.Load(),
	}
}

// Ready reports whether this node should receive traffic: the engine
// must be healthy (journal not poisoned, not shutting down), and a
// follower must additionally be attached to the leader with lag at most
// MaxLag — a stale follower answering reads would silently serve old
// rankings.
func (n *Node) Ready() error {
	if err := n.srv.Ready(); err != nil {
		return err
	}
	if n.Role() != RoleFollower {
		return nil
	}
	if n.resync.Load() {
		return fmt.Errorf("replica: follower fell behind leader compaction; wipe the data dir and re-bootstrap")
	}
	if !n.connected.Load() {
		return fmt.Errorf("replica: replication stream to %s not connected", n.LeaderHint())
	}
	if lag := n.Lag(); lag > n.cfg.MaxLag {
		return fmt.Errorf("replica: follower lag %d exceeds readiness threshold %d", lag, n.cfg.MaxLag)
	}
	return nil
}

// Promote makes this node the leader under a freshly-bumped, durably
// stored epoch. Idempotent on a node that already leads. The epoch hits
// disk before the role changes: a promotion that cannot be recorded is
// refused, because an unrecorded epoch could not fence the old leader
// after a crash.
func (n *Node) Promote() (Status, error) {
	n.mu.Lock()
	if n.role == RoleLeader {
		n.mu.Unlock()
		return n.Status(), nil
	}
	next := n.epoch + 1
	if n.cfg.EpochDir != "" {
		//lint:ignore lockcheck the epoch must be durable BEFORE the role changes, and both must move atomically against observeEpoch — a promotion racing a deposal outside one critical section could lead at a fenced epoch
		if err := StoreEpoch(n.cfg.EpochDir, next); err != nil {
			n.mu.Unlock()
			return Status{}, fmt.Errorf("replica: refusing promotion: epoch %d not durable: %w", next, err)
		}
	}
	n.epoch = next
	n.role = RoleLeader
	n.leaderURL = n.cfg.Self
	n.mu.Unlock()
	n.connected.Store(false)
	n.met.promotions.Inc()
	n.logf("replica: promoted to leader at epoch %d", next)
	return n.Status(), nil
}

// observeEpoch folds one epoch observed on a request, response, or
// heartbeat into the node. Seeing an epoch beyond our own while leading
// is the fencing signal: somebody promoted a new leader, so this node
// steps down and poisons its journal — after which no append, and
// therefore no acknowledgement, can ever succeed here again (restart the
// process as a follower of the new leader to rejoin). Returns true when
// this call deposed the node.
func (n *Node) observeEpoch(e uint64) (deposed bool) {
	if e == 0 {
		return false
	}
	n.mu.Lock()
	if e <= n.epoch {
		n.mu.Unlock()
		return false
	}
	wasLeader := n.role == RoleLeader
	n.epoch = e
	if wasLeader {
		n.role = RoleFollower
		// The higher epoch proves a successor exists but not where; the
		// hint stays empty until an operator re-points this node.
		n.leaderURL = ""
	}
	dir := n.cfg.EpochDir
	n.mu.Unlock()
	if dir != "" {
		if err := StoreEpoch(dir, e); err != nil {
			n.logf("replica: recording adopted epoch %d: %v", e, err)
		}
	}
	if !wasLeader {
		return false
	}
	n.met.stepdowns.Inc()
	cause := fmt.Errorf("%w: saw epoch %d beyond this node's lease", ErrDeposed, e)
	if jnl := n.srv.Journal(); jnl != nil {
		jnl.Poison(cause)
	}
	n.logf("replica: stepping down: %v", cause)
	return true
}

// observeEpochHeader folds the epoch header of a request or response.
func (n *Node) observeEpochHeader(h http.Header) bool {
	raw := h.Get(EpochHeader)
	if raw == "" {
		return false
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return false
	}
	return n.observeEpoch(e)
}

// setLeader records a fresher leader hint (from a 503 redirect).
func (n *Node) setLeader(url string) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" || url == n.cfg.Self {
		return
	}
	n.mu.Lock()
	if n.role == RoleFollower && n.leaderURL != url {
		n.logf("replica: following leader hint to %s", url)
		n.leaderURL = url
	}
	n.mu.Unlock()
}

// Handler wraps the serving engine's HTTP API with the replication
// protocol:
//
//	GET  /replicate/stream    leader: chunked frame stream from ?from=
//	GET  /replicate/snapshot  leader: state snapshot for follower bootstrap
//	POST /promote             promote this node under a bumped epoch
//	POST /votes               leader-only; followers 503 with a leader hint
//	GET  /healthz             engine stats plus the replication status block
//	GET  /readyz              role- and lag-aware readiness
//
// Every other route falls through to the engine unchanged (rank requests
// are served by any role — followers are warm read replicas). /healthz and
// /readyz go through the engine's request instrumentation, so they are
// counted in its HTTP metrics like the routes that fall through.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replicate/stream", n.handleStream)
	mux.HandleFunc("GET /replicate/snapshot", n.handleSnapshot)
	mux.HandleFunc("POST /promote", n.handlePromote)
	mux.HandleFunc("POST /votes", n.handleVotes)
	mux.Handle("GET /healthz", n.srv.Instrument("healthz", n.handleHealthz))
	mux.Handle("GET /readyz", n.srv.Instrument("readyz", n.handleReadyz))
	mux.Handle("/", n.inner)
	return mux
}

func (n *Node) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		n.logf("replica: writing %d response: %v", status, err)
	}
}

func (n *Node) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	n.writeJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// setEpochHeader stamps the node's current epoch on a response, which is
// how clients and peers accumulate the highest epoch in circulation.
func (n *Node) setEpochHeader(w http.ResponseWriter) {
	w.Header().Set(EpochHeader, strconv.FormatUint(n.Epoch(), 10))
}

// rejectNotLeader answers a write addressed to a non-leader: 503, the
// best leader hint, and a short Retry-After so clients re-resolve fast.
func (n *Node) rejectNotLeader(w http.ResponseWriter) {
	if hint := n.LeaderHint(); hint != "" && hint != n.cfg.Self {
		w.Header().Set(LeaderHeader, hint)
	}
	w.Header().Set("Retry-After", "1")
	n.writeError(w, http.StatusServiceUnavailable, "this node is a %s; ingest goes to the leader", n.Role())
}

func (n *Node) handleVotes(w http.ResponseWriter, r *http.Request) {
	if n.observeEpochHeader(r.Header) {
		// This very request fenced us: a promotion happened elsewhere and
		// the client knows a higher epoch than we did. The journal is now
		// poisoned; nothing can be acknowledged here.
		n.setEpochHeader(w)
		n.writeError(w, http.StatusServiceUnavailable, "%v: ingest is fenced", ErrDeposed)
		return
	}
	n.setEpochHeader(w)
	if n.Role() != RoleLeader {
		n.rejectNotLeader(w)
		return
	}
	n.inner.ServeHTTP(w, r)
}

func (n *Node) handlePromote(w http.ResponseWriter, _ *http.Request) {
	st, err := n.Promote()
	if err != nil {
		n.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	n.setEpochHeader(w)
	n.writeJSON(w, http.StatusOK, st)
}

// healthResponse is the engine's stats with the replication block nested
// under "replica".
type healthResponse struct {
	serve.Stats
	Replica Status `json:"replica"`
}

func (n *Node) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	n.setEpochHeader(w)
	n.writeJSON(w, http.StatusOK, healthResponse{Stats: n.srv.StatsSnapshot(), Replica: n.Status()})
}

func (n *Node) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	n.setEpochHeader(w)
	if err := n.Ready(); err != nil {
		n.writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	n.writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": string(n.Role())})
}

// StopReplication ends replication without closing the node: leader
// streams return and a follower's replication loop stops, while client
// requests are still served. Register it with
// http.Server.RegisterOnShutdown so a graceful Shutdown does not wait on
// long-lived follower streams.
func (n *Node) StopReplication() { n.cancel() }

// Close stops replication and shuts the serving engine down. Idempotent.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	n.cancel()
	n.wg.Wait()
	return n.srv.Close()
}
