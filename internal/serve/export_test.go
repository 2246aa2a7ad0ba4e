package serve

import "crowdrank/internal/graph"

// WaitAheadIdle exposes waitAheadIdle to the external benchmarks.
func WaitAheadIdle(s *Server) { s.waitAheadIdle() }

// ExactMaxSteps is the exact rung's work cap.
const ExactMaxSteps = exactMaxSteps

// BreakerThreshold is how many exact-rung overruns open the breaker.
const BreakerThreshold = breakerThreshold

// SetExactHook makes f receive the pair steps of every exact attempt until
// the returned restore runs.
func SetExactHook(f func(steps int)) (restore func()) {
	testExactHook = f
	return func() { testExactHook = nil }
}

// Closure returns the Steps 1-3 closure of s's newest vote state.
func Closure(s *Server) (*graph.PreferenceGraph, error) {
	e, err := s.current()
	return e.closure, err
}

// current fills the cache entry of s's newest vote state as a rank does
// and returns it.
func (s *Server) current() (genEntry, error) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	e, _, err := s.fill(triggerRank)
	return e, err
}

// VoteCap returns the capacity of s's vote slice.
func VoteCap(s *Server) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return cap(s.state.votes)
}
