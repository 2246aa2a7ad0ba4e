package serve

// WaitAheadIdle exposes waitAheadIdle to the external benchmarks.
func WaitAheadIdle(s *Server) { s.waitAheadIdle() }
