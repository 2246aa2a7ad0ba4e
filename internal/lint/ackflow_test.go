package lint

import (
	"slices"
	"strings"
	"testing"
)

// ackRule builds the fixture's durable-before-ack rule: package p's Server
// may not reach apply or writeOK(w, 200) from Ingest/Handle before
// fixture/j.Journal.Append.
func ackRule() []AckflowRule {
	return []AckflowRule{{
		Pkg:      "fixture/p",
		Sources:  []string{"Server.Ingest", "Server.Handle"},
		Barriers: []string{"fixture/j.Journal.Append"},
		Sinks: []AckSink{
			{Func: "Server.apply"},
			{Func: "Server.writeOK", ConstArg: 200},
		},
	}}
}

// journalFixture is the barrier-owning dependency package.
const journalFixture = `package j

type Journal struct{ n int }

func (j *Journal) Append(b []byte) error {
	j.n += len(b)
	return nil
}
`

func ackFixture(t *testing.T, serverSrc string) []Finding {
	t.Helper()
	return lintFixturePkgs(t, Config{Checks: []string{"ackflow"}, Ackflow: ackRule()},
		map[string]map[string]string{
			"j": {"j.go": journalFixture},
			"p": {"p.go": serverSrc},
		}, []string{"p"})
}

func TestAckflow(t *testing.T) {
	t.Run("ack after barrier is clean", func(t *testing.T) {
		fs := ackFixture(t, `package p

import "fixture/j"

type Server struct{ jnl *j.Journal }

func (s *Server) apply(b []byte) int { return len(b) }

func (s *Server) writeOK(status int) {}

func (s *Server) Ingest(b []byte) (int, error) {
	if err := s.jnl.Append(b); err != nil {
		return 0, err
	}
	n := s.apply(b)
	s.writeOK(200)
	return n, nil
}

func (s *Server) Handle(b []byte) {
	if _, err := s.Ingest(b); err != nil {
		s.writeOK(503)
	}
}
`)
		if len(fs) != 0 {
			t.Fatalf("barrier-then-ack must be clean, got %v", fs)
		}
	})
	t.Run("ack before barrier is a finding", func(t *testing.T) {
		fs := ackFixture(t, `package p

import "fixture/j"

type Server struct{ jnl *j.Journal }

func (s *Server) apply(b []byte) int { return len(b) }

func (s *Server) writeOK(status int) {}

func (s *Server) Ingest(b []byte) (int, error) {
	n := s.apply(b) // acked before the journal append
	if err := s.jnl.Append(b); err != nil {
		return 0, err
	}
	return n, nil
}

func (s *Server) Handle(b []byte) {
	if _, err := s.Ingest(b); err != nil {
		s.writeOK(503)
	}
}
`)
		if got := byCheck(fs)["ackflow"]; got != 1 {
			t.Fatalf("want 1 ackflow finding for apply-before-Append, got %d: %v", got, fs)
		}
		if len(messagesContaining(fs, "ackflow", "Server.apply")) != 1 {
			t.Fatalf("finding should name the sink: %v", fs)
		}
	})
	t.Run("sink reached through a helper chain", func(t *testing.T) {
		fs := ackFixture(t, `package p

import "fixture/j"

type Server struct{ jnl *j.Journal }

func (s *Server) apply(b []byte) int { return len(b) }

func (s *Server) writeOK(status int) {}

func (s *Server) respond(b []byte) {
	s.writeOK(200) // two calls below the source, still before the barrier
}

func (s *Server) Ingest(b []byte) (int, error) {
	s.respond(b)
	if err := s.jnl.Append(b); err != nil {
		return 0, err
	}
	return s.apply(b), nil
}

func (s *Server) Handle(b []byte) {
	_, _ = s.Ingest(b)
}
`)
		if got := byCheck(fs)["ackflow"]; got != 1 {
			t.Fatalf("want 1 ackflow finding through the helper, got %d: %v", got, fs)
		}
	})
	t.Run("const status distinguishes ack from error response", func(t *testing.T) {
		fs := ackFixture(t, `package p

import "fixture/j"

type Server struct{ jnl *j.Journal }

func (s *Server) apply(b []byte) int { return len(b) }

func (s *Server) writeOK(status int) {}

func (s *Server) Ingest(b []byte) (int, error) {
	if len(b) == 0 {
		s.writeOK(400) // rejecting is not acking
		return 0, nil
	}
	if err := s.jnl.Append(b); err != nil {
		s.writeOK(503) // failure is not acking
		return 0, err
	}
	return s.apply(b), nil
}

func (s *Server) Handle(b []byte) {
	_, _ = s.Ingest(b)
}
`)
		if len(fs) != 0 {
			t.Fatalf("non-200 writes must not count as acks, got %v", fs)
		}
	})
	t.Run("barrier on one branch does not cover the other", func(t *testing.T) {
		fs := ackFixture(t, `package p

import "fixture/j"

type Server struct{ jnl *j.Journal }

func (s *Server) apply(b []byte) int { return len(b) }

func (s *Server) writeOK(status int) {}

func (s *Server) Ingest(b []byte) (int, error) {
	if len(b) > 1 {
		if err := s.jnl.Append(b); err != nil {
			return 0, err
		}
		return s.apply(b), nil
	}
	// Single-vote fast path returns without journaling...
	return s.apply(b), nil
}

func (s *Server) Handle(b []byte) {
	_, _ = s.Ingest(b)
}
`)
		if got := byCheck(fs)["ackflow"]; got != 1 {
			t.Fatalf("want 1 finding on the unjournaled fast path, got %d: %v", got, fs)
		}
	})
	t.Run("suppressed with reason", func(t *testing.T) {
		fs := ackFixture(t, `package p

import "fixture/j"

type Server struct{ jnl *j.Journal }

func (s *Server) apply(b []byte) int { return len(b) }

func (s *Server) writeOK(status int) {}

func (s *Server) Ingest(b []byte) (int, error) {
	//lint:ignore ackflow the in-memory configuration journals nothing by contract; durability is not promised here
	n := s.apply(b)
	if err := s.jnl.Append(b); err != nil {
		return 0, err
	}
	return n, nil
}

func (s *Server) Handle(b []byte) {
	_, _ = s.Ingest(b)
}
`)
		if len(fs) != 0 {
			t.Fatalf("reasoned suppression must silence the finding, got %v", fs)
		}
	})
	t.Run("stale source names are findings", func(t *testing.T) {
		fs := ackFixture(t, `package p

import "fixture/j"

type Server struct{ jnl *j.Journal }

func (s *Server) apply(b []byte) int { return len(b) }

func (s *Server) writeOK(status int) {}

// Ingest was renamed; the configured sources no longer all resolve.
func (s *Server) IngestBatch(b []byte) (int, error) {
	if err := s.jnl.Append(b); err != nil {
		return 0, err
	}
	return s.apply(b), nil
}

func (s *Server) Handle(b []byte) {
	_, _ = s.IngestBatch(b)
}
`)
		stale := messagesContaining(fs, "ackflow", "does not resolve")
		if len(stale) != 1 || !strings.Contains(stale[0].Message, "Server.Ingest") {
			t.Fatalf("want a staleness finding for the renamed source, got %v", fs)
		}
	})
	t.Run("default rule targets the serve package", func(t *testing.T) {
		rules := Config{}.ackflowRules()
		if len(rules) != 1 || rules[0].Pkg != "crowdrank/internal/serve" {
			t.Fatalf("default ackflow rule must cover the daemon: %+v", rules)
		}
		if len(rules[0].Sources) == 0 || len(rules[0].Barriers) == 0 || len(rules[0].Sinks) == 0 {
			t.Fatalf("default rule must name sources, barriers, and sinks: %+v", rules[0])
		}
		// The follower's replicated records are an entry point too, and the
		// vote-state apply is where every batch lands.
		if !slices.Contains(rules[0].Sources, "Server.ApplyReplicated") || !slices.Contains(rules[0].Sinks, AckSink{Func: "voteState.apply"}) {
			t.Fatalf("default rule must cover the follower path into voteState.apply: %+v", rules[0])
		}
	})
}
