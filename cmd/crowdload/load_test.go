package main

import (
	"context"
	"testing"
	"time"

	"crowdrank/internal/feq"
)

// TestOpenLoopChargesQueueingFromDueTime: requests go out on schedule
// even while an earlier one is stuck, and a request that had to wait for
// the single connection is charged that wait, measured from its due time.
func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	const rate, count, stall = 1000, 5, 50 * time.Millisecond
	conn := make(chan struct{}, 1)
	start := time.Now()
	samples := openLoop(context.Background(), start, "votes", rate, count, 7, func(ctx context.Context, i int) error {
		conn <- struct{}{}
		defer func() { <-conn }()
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != count {
		t.Fatalf("got %d samples, want %d", len(samples), count)
	}
	for i, s := range samples {
		due := s.Due.Sub(start)
		if want := time.Duration(i) * time.Millisecond; due != want {
			t.Errorf("sample %d due at %v, want %v", i, due, want)
		}
		if s.ID != 7+i || s.Class != "votes" {
			t.Errorf("sample %d labelled id=%d class=%q", i, s.ID, s.Class)
		}
		if s.Late() < 0 || s.End.Before(s.Sent) {
			t.Errorf("sample %d out of order: late %v, answered %v after sending", i, s.Late(), s.End.Sub(s.Sent))
		}
		// Every later request was sent long before the stall ended...
		if sent := s.Sent.Sub(start); i > 0 && sent >= stall {
			t.Errorf("sample %d sent at %v: the generator waited for the stalled request", i, sent)
		}
		// ...and its latency includes the wait for the connection.
		if i > 0 && s.Latency() < stall-due {
			t.Errorf("sample %d latency %v hides the %v stall", i, s.Latency(), stall-due)
		}
	}
}

func TestNearestRankPercentiles(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	d := newDist(ds)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := d.Percentile(c.p); !feq.Eq(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !feq.Eq(d.Mean(), 50.5) {
		t.Errorf("mean %v, want 50.5", d.Mean())
	}
	if !feq.Zero(newDist(nil).Percentile(50)) {
		t.Error("empty sample should read 0")
	}
}

// TestTenBeyondRule: how many samples lie past a percentile's nearest
// rank, which must be at least ten for the percentile to be supported.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{100, 90, 10}, {99, 90, 9}, {1000, 99, 10}, {999, 99, 9}, {150, 90, 15}, {4500, 99, 45}} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("n=%d p%v: %d beyond, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

// TestLatenessGateReadsMedian: late wake-ups in the tail leave a run
// valid, since their latency already counts from the due time; the run
// fails only once most requests left late.
func TestLatenessGateReadsMedian(t *testing.T) {
	for _, c := range []struct {
		late int // of 40 requests, sent a second behind schedule
		fail bool
	}{{0, false}, {1, false}, {20, false}, {21, true}, {40, true}} {
		r := &runner{}
		due := time.Now()
		for i := range 40 {
			sent := due
			if i < c.late {
				sent = due.Add(time.Second)
			}
			r.samples = append(r.samples, sample{ID: i + 1, Class: "rank", Due: due, Sent: sent, End: sent})
		}
		if got := r.lateness(50) > lateGate; got != c.fail {
			t.Errorf("%d of 40 late: gate fails=%v, want %v", c.late, got, c.fail)
		}
	}
}

func TestParseCPUMillis(t *testing.T) {
	stat := "4242 (crowd rankd) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 37 0 0 20 0 9 0 100 0 0"
	got, err := parseCPUMillis(stat)
	if err != nil {
		t.Fatal(err)
	}
	if !feq.Eq(got, 1870) {
		t.Errorf("cpu %v ms, want 1870 (187 ticks)", got)
	}
	if _, err := parseCPUMillis("garbage"); err == nil {
		t.Error("a line without a command name should be refused")
	}
}
