package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdrank/internal/crowd"
)

// Pool fans one logical client over several crowdrankd nodes in a
// replicated deployment. It keeps a best-known-leader endpoint, follows
// the X-Crowdrank-Leader hints followers attach to their 503s,
// re-resolves on connection failure by rotating through the configured
// endpoints, and shares one epoch counter across every per-endpoint
// client so the fencing epoch learned from a freshly-promoted leader is
// echoed at whatever node is contacted next.
//
// A batch keeps ONE idempotency key across all nodes and all attempts:
// if the old leader acked it and died, the retry of the same key on the
// new leader answers from the replicated ack window instead of applying
// the batch again — exactly-once end to end, across failover.
type Pool struct {
	endpoints []string // configured nodes, rotation ring order
	rounds    int      // endpoint switches per logical call
	logf      func(string, ...any)

	// template supplies keys, jitter, and the sleep seam (one seeded
	// stream for the whole pool, matching single-client determinism).
	template *Client

	mu        sync.Mutex
	clients   map[string]*Client
	preferred string // best-known leader endpoint

	// epoch is shared by every per-endpoint client.
	epoch *atomic.Uint64
}

// NewPool builds a Pool over the given node base URLs. cfg configures
// the per-endpoint clients (cfg.BaseURL is ignored); per-endpoint
// MaxAttempts is forced low because endpoint rotation, not same-node
// persistence, is the pool's retry strategy — cfg.MaxAttempts instead
// bounds how many times one logical call may switch endpoints.
//
//lint:ignore ctxloop construction only: the loop builds one client per configured endpoint and performs no I/O
func NewPool(cfg Config, endpoints []string) (*Pool, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("client: pool needs at least one endpoint")
	}
	rounds := cfg.MaxAttempts
	if rounds == 0 {
		rounds = 8
	}
	// Two tries per node: enough to ride out a one-off network blip
	// without parking the pool on a dead endpoint.
	cfg.MaxAttempts = 2
	p := &Pool{
		rounds:  rounds,
		clients: make(map[string]*Client, len(endpoints)),
		epoch:   &atomic.Uint64{},
	}
	for _, ep := range endpoints {
		ep = strings.TrimRight(strings.TrimSpace(ep), "/")
		if ep == "" {
			return nil, fmt.Errorf("client: pool endpoint must not be empty")
		}
		if _, ok := p.clients[ep]; ok {
			continue
		}
		ccfg := cfg
		ccfg.BaseURL = ep
		c, err := New(ccfg)
		if err != nil {
			return nil, err
		}
		c.epoch = p.epoch
		p.clients[ep] = c
		p.endpoints = append(p.endpoints, ep)
		if p.template == nil {
			p.template = c
		}
	}
	p.preferred = p.endpoints[0]
	p.logf = p.template.logf
	return p, nil
}

// Epoch returns the highest replication epoch the pool has seen.
func (p *Pool) Epoch() uint64 { return p.epoch.Load() }

// Leader returns the endpoint the pool currently believes leads.
func (p *Pool) Leader() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.preferred
}

// NewKey draws the next idempotency key from the pool's seeded stream.
func (p *Pool) NewKey() string { return p.template.NewKey() }

// target returns the preferred endpoint's client.
func (p *Pool) target() (string, *Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.preferred, p.clients[p.preferred]
}

// follow adopts a leader hint, creating a client for an endpoint the
// pool was not configured with (hints name advertised URLs, which may
// differ from the dial addresses when proxies sit in between — a hint
// for an unknown URL is still the cluster's best routing information).
// Reports whether the hint moved the preference somewhere new.
func (p *Pool) follow(hint string) bool {
	hint = strings.TrimRight(strings.TrimSpace(hint), "/")
	if hint == "" {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if hint == p.preferred {
		return false
	}
	if _, ok := p.clients[hint]; !ok {
		ccfg := p.template.cfg
		ccfg.BaseURL = hint
		c, err := New(ccfg)
		if err != nil {
			return false
		}
		c.epoch = p.epoch
		p.clients[hint] = c
	}
	p.logf("client: pool following leader hint to %s", hint)
	p.preferred = hint
	return true
}

// rotateFrom moves the preference to the next configured endpoint after
// the one that just failed (a failed dynamic hint falls back to the
// start of the ring).
func (p *Pool) rotateFrom(failed string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.preferred != failed {
		return // someone else already moved it
	}
	next := p.endpoints[0]
	for i, ep := range p.endpoints {
		if ep == failed {
			next = p.endpoints[(i+1)%len(p.endpoints)]
			break
		}
	}
	p.logf("client: pool rotating from %s to %s", failed, next)
	p.preferred = next
}

// SubmitVotes delivers one batch under a single fresh idempotency key,
// following leader hints and rotating endpoints until a node acks it,
// the rounds are exhausted, or ctx ends.
func (p *Pool) SubmitVotes(ctx context.Context, votes []crowd.Vote) (Ack, error) {
	return p.SubmitVotesKeyed(ctx, p.NewKey(), votes)
}

// SubmitVotesKeyed is SubmitVotes under a caller-chosen key.
func (p *Pool) SubmitVotesKeyed(ctx context.Context, key string, votes []crowd.Vote) (Ack, error) {
	var ack Ack
	var lastErr error
	for round := 0; round < p.rounds; round++ {
		if round > 0 {
			if err := p.template.sleep(ctx, p.template.jitter(round)); err != nil {
				return ack, fmt.Errorf("client: pool cancelled while backing off (last error: %v): %w", lastErr, err)
			}
		}
		target, c := p.target()
		ack, lastErr = c.SubmitVotesKeyed(ctx, key, votes)
		if lastErr == nil {
			return ack, nil
		}
		if ctx.Err() != nil {
			return ack, fmt.Errorf("client: pool cancelled (last error: %v): %w", lastErr, ctx.Err())
		}
		var redirect *LeaderRedirect
		if errors.As(lastErr, &redirect) && p.follow(redirect.Leader) {
			continue
		}
		var status *StatusError
		if errors.As(lastErr, &status) {
			// The daemon answered with a permanent rejection (bad batch,
			// oversized body); no other node will disagree.
			return ack, lastErr
		}
		p.rotateFrom(target)
	}
	return ack, fmt.Errorf("client: pool exhausted %d endpoint rounds: %w", p.rounds, lastErr)
}

// Rank fetches a ranking from any node, preferred first — followers are
// warm read replicas, so reads survive a leader outage without waiting
// for promotion.
func (p *Pool) Rank(ctx context.Context, deadline time.Duration) (Ranking, error) {
	var lastErr error
	start, _ := p.target()
	order := p.ring(start)
	for _, ep := range order {
		p.mu.Lock()
		c := p.clients[ep]
		p.mu.Unlock()
		rk, err := c.Rank(ctx, deadline)
		if err == nil {
			return rk, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return Ranking{}, fmt.Errorf("client: pool rank failed on every node: %w", lastErr)
}

// ring returns the endpoints starting from `from` (or the configured
// order when from is a dynamic hint), wrapping around, with `from` first
// even when it is not a configured endpoint.
func (p *Pool) ring(from string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	order := make([]string, 0, len(p.endpoints)+1)
	seen := map[string]bool{}
	add := func(ep string) {
		if !seen[ep] {
			seen[ep] = true
			order = append(order, ep)
		}
	}
	if _, ok := p.clients[from]; ok {
		add(from)
	}
	start := 0
	for i, ep := range p.endpoints {
		if ep == from {
			start = i
			break
		}
	}
	for i := range p.endpoints {
		add(p.endpoints[(start+i)%len(p.endpoints)])
	}
	return order
}
