package serve

import (
	"sync/atomic"

	"crowdrank/internal/search"
)

// Build-ahead. The Steps 1-3 closure and the polished floor depend on the
// vote state alone, so the cache entry the next rank needs can be built
// before that rank arrives. One builder goroutine per Server does this
// between an ingest and the rank that follows it, so the rank is a cache
// hit instead of paying the rebuild on the request path.
//
// Arming rule: a served rank (a 304 included) arms the builder, and the
// next apply that moves the generation consumes the flag and wakes it.
// There is at most one speculative build per served rank and one build in
// flight; generations arriving faster than builds coalesce into one build
// of the newest; ingest-only traffic never builds. Exact search, the
// breaker and the upgrade-only cache stay request-driven: the builder only
// ever stores the floor, and only into an entry no search answered yet.
type ahead struct {
	armed atomic.Bool
	wake  chan struct{}      // one slot: a pending wake absorbs later ones
	idle  chan chan struct{} // waitAheadIdle requests
	stop  chan struct{}      // closed by Close
	done  chan struct{}      // closed when the builder has returned
}

func newAhead() ahead {
	return ahead{
		wake: make(chan struct{}, 1),
		idle: make(chan chan struct{}),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// arm records a served rank: the next generation is worth building ahead.
func (a *ahead) arm() { a.armed.Store(true) }

// fire consumes the armed flag and, if it was set, wakes the builder. It
// never blocks: a wake already pending covers this one.
func (a *ahead) fire() {
	if !a.armed.CompareAndSwap(true, false) {
		return
	}
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// testAheadHook, when set, runs inside every build-ahead that computes a
// floor, with cacheMu held, between the closure build and the floor
// search. Tests set it before constructing the server to hold a build
// open at a known point. Always nil in production.
var testAheadHook func()

// runAhead is the builder goroutine, started once by NewContext and
// stopped by Close.
func (s *Server) runAhead() {
	defer close(s.ahead.done)
	for {
		select {
		case <-s.ahead.stop:
			return
		case <-s.ahead.wake:
			s.buildAhead()
		case idle := <-s.ahead.idle:
			// A wake sent before the request is pending here or was
			// served above; serve it before answering.
			select {
			case <-s.ahead.wake:
				s.buildAhead()
			default:
			}
			close(idle)
		}
	}
}

// waitAheadIdle returns once every build woken before the call has
// finished (or the builder has stopped). Tests and benchmarks use it to
// pin the builder's effects without sleeping.
func (s *Server) waitAheadIdle() {
	idle := make(chan struct{})
	select {
	case s.ahead.idle <- idle:
		<-idle
	case <-s.ahead.done:
	}
}

// buildAhead folds the newest generation into the cache: its closure
// through the request path's fold, then its polished floor. Both run under
// one cacheMu hold, so a rank arriving mid-build waits and is served the
// result instead of searching the same generation again. Like a rank it
// holds closeMu shared.
func (s *Server) buildAhead() {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing.Load() {
		return
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	//lint:ignore lockcheck the builder holds closeMu shared like a rank (Close stops it before taking closeMu exclusively) and cacheMu across closure and floor, so a rank arriving mid-build joins the build instead of searching the generation again
	e, err := s.currentLocked(s.met.closureBuilds[triggerAhead])
	if err != nil {
		s.logf("serve: build-ahead: %v", err)
		return
	}
	if e.votes == 0 || e.best != nil {
		return // nothing to rank, or a rank already searched this generation
	}
	if testAheadHook != nil {
		testAheadHook()
	}
	start := s.clock.Now()
	sr, err := search.Greedy(e.closure, search.ObjectiveAllPairs)
	if err != nil {
		s.logf("serve: build-ahead: floor failed: %v", err)
		return
	}
	s.met.stageSeconds[stageSearch].ObserveDuration(s.clock.Since(start))
	r := s.result(e, AlgoGreedy, sr)
	s.entry.best = &r
}
