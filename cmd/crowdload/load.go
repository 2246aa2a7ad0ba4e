package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one request of an open-loop phase: due is when the schedule
// said to send, sent when the generator actually handed the request to
// the client, end when the answer (or error) came back.
type sample struct {
	ID    int
	Class string
	Due   time.Time
	Sent  time.Time
	End   time.Time
	Err   error
}

// Latency is measured from the due time, so a stall that delays later
// requests is charged to them too (no coordinated omission).
func (s sample) Latency() time.Duration { return s.End.Sub(s.Due) }

// Late is how far behind its schedule the generator sent the request.
func (s sample) Late() time.Duration { return s.Sent.Sub(s.Due) }

// openLoop sends count requests at a fixed rate from start, each on its
// own goroutine at its due time, whether or not earlier requests have
// answered, and returns once every request has. fire performs request i,
// whose sample id is firstID+i. Queueing for a connection happens inside
// fire and is part of the measured latency.
func openLoop(ctx context.Context, start time.Time, class string, rate float64, count, firstID int, fire func(ctx context.Context, i int) error) []sample {
	samples := make([]sample, count)
	period := float64(time.Second) / rate
	var wg sync.WaitGroup
	for i := range count {
		due := start.Add(time.Duration(float64(i) * period))
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			err := fire(ctx, i)
			samples[i] = sample{ID: firstID + i, Class: class, Due: due, Sent: sent, End: time.Now(), Err: err}
		}(i, due, sent)
	}
	wg.Wait()
	return samples
}

// dist is a sorted sample of durations in milliseconds.
type dist []float64

func newDist(ds []time.Duration) dist {
	out := make(dist, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest rank of the p-th percentile among n values.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// beyond is how many of n samples lie past the p-th percentile's nearest
// rank. A percentile rests on more than a handful of outliers only when
// at least ten do.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// Percentile is the nearest-rank p-th percentile (0 for an empty sample).
func (d dist) Percentile(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), p)-1]
}

// Mean is the arithmetic mean (0 for an empty sample).
func (d dist) Mean() float64 {
	if len(d) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d {
		sum += x
	}
	return sum / float64(len(d))
}

// median of unsorted values (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
