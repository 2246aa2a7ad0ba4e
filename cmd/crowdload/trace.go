package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/journal"
	"crowdrank/internal/search"
	"crowdrank/internal/snapshot"
)

// Traced-run replay bounds: served generations replayed through the
// pipeline, and journal records re-appended.
const (
	replaySamples = 8
	replayRecords = 1000
)

// crowdrankd derives two random sources from its served seed: one for
// the Steps 1-3 build (the one crowdrank.CertifyRanking rebuilds) and one
// for Step 4 search. The replay seeds its calls the same way.
const (
	pipelineSalt = 0xd1342543de82ef95
	searchSalt   = 0x9e3779b97f4a7c15
)

func servedRNG(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^salt)) }

// span is one timed unit of work. Times are milliseconds since the run
// started. Parent is the enclosing phase span (0 for a phase); Cause, on
// a replayed call, is the request whose input it replays.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Cause  int     `json:"cause,omitempty"`
	Name   string  `json:"name"`
	Due    float64 `json:"due_ms,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Status string  `json:"status,omitempty"`
}

func (r *runner) offset(t time.Time) float64 { return t.Sub(r.t0).Seconds() * 1000 }

// span records one span and returns its id.
func (r *runner) span(parent, cause int, name string, start, end time.Time, status string) int {
	id := r.id()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Cause: cause, Name: name, Start: r.offset(start), End: r.offset(end), Status: status})
	return id
}

// call times fn as a span caused by request cause.
func (r *runner) call(parent, cause int, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	status := "ok"
	if err != nil {
		status = err.Error()
	}
	r.span(parent, cause, name, start, end, status)
	return end.Sub(start), err
}

// requestSpans turns the measured phase's samples into request spans
// under the measure phase span.
func (r *runner) requestSpans(parent int) {
	for _, s := range r.samples {
		status := "ok"
		if s.Err != nil {
			status = s.Err.Error()
		}
		r.spans = append(r.spans, span{
			ID: s.ID, Parent: parent, Name: s.Class,
			Due: r.offset(s.Due), Start: r.offset(s.Sent), End: r.offset(s.End), Status: status,
		})
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// replay re-runs the workload's own inputs in process through the
// layers' public functions, one span per call: the leader's journal
// records re-appended to a fresh journal, the final state through
// snapshot write/load/encode/decode, and a sample of served generations
// through Steps 1-3 and each Step 4 searcher.
func (r *runner) replay(ctx context.Context, votes []crowd.Vote) error {
	start := time.Now()
	parent := r.id()
	r.leader.stop()
	bySeq := make(map[uint64]ackedBatch, len(r.acked))
	for _, b := range r.acked {
		bySeq[uint64(b.Ack.Seq-1)] = b
	}
	if err := r.replayJournal(parent, bySeq); err != nil {
		return err
	}
	if err := r.replaySnapshot(parent, votes); err != nil {
		return err
	}
	if err := r.replayRanks(ctx, parent, votes); err != nil {
		return err
	}
	r.spans = append(r.spans, span{ID: parent, Name: "replay", Start: r.offset(start), End: r.offset(time.Now())})
	return nil
}

func (r *runner) replayJournal(parent int, bySeq map[uint64]ackedBatch) error {
	dir := filepath.Join(r.leader.dir, "journal")
	from := uint64(0)
	snaps, err := snapshot.List(dir)
	if err != nil {
		return err
	}
	if len(snaps) > 0 {
		from = snaps[0].Seq
	}
	var payloads [][]byte
	var stats journal.ReplayStats
	scan, err := r.call(parent, 0, "journal.Open", func() error {
		j, st, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways, ReplayFrom: from}, func(p []byte) error {
			payloads = append(payloads, bytes.Clone(p))
			return nil
		})
		stats = st
		if err != nil {
			return err
		}
		return j.Close()
	})
	if err != nil {
		return err
	}
	r.setExtra("journal.replay_records_per_s", float64(stats.Records+stats.SkippedRecords)/scan.Seconds())

	fresh, _, err := journal.Open(filepath.Join(r.dir, "replay-journal"), journal.Options{Sync: journal.SyncAlways}, nil)
	if err != nil {
		return err
	}
	skip := max(len(payloads)-replayRecords, 0)
	votes := 0
	var appendUS []float64
	for i, p := range payloads[skip:] {
		b := bySeq[from+uint64(skip+i)]
		votes += len(b.Votes)
		d, err := r.call(parent, b.Req, "journal.Append", func() error {
			_, err := fresh.Append(p)
			return err
		})
		if err != nil {
			return errors.Join(err, fresh.Close())
		}
		appendUS = append(appendUS, ms(d)*1000)
	}
	if votes > 0 {
		r.setExtra("journal.bytes_per_vote", float64(fresh.Size())/float64(votes))
	}
	r.setExtra("journal.sync_append_us", median(appendUS))
	return fresh.Close()
}

func (r *runner) replaySnapshot(parent int, votes []crowd.Vote) error {
	st := snapshot.State{N: objects, M: workers, Seq: uint64(len(r.acked)), Votes: votes}
	for _, b := range r.acked {
		if b.Ack.Accepted > 0 {
			st.Gen++
		}
	}
	cause := r.acked[len(r.acked)-1].Req
	dir := filepath.Join(r.dir, "replay-snapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var path string
	if _, err := r.call(parent, cause, "snapshot.Write", func() (err error) {
		path, err = snapshot.Write(dir, st)
		return err
	}); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.setExtra("snapshot.bytes_per_vote", float64(info.Size())/float64(max(len(votes), 1)))
	load, err := r.call(parent, cause, "snapshot.Load", func() error {
		got, err := snapshot.Load(path)
		if err == nil && len(got.Votes) != len(votes) {
			err = fmt.Errorf("loaded %d votes, wrote %d", len(got.Votes), len(votes))
		}
		return err
	})
	if err != nil {
		return err
	}
	r.setExtra("snapshot.load_ms", ms(load))
	var data []byte
	if _, err := r.call(parent, cause, "snapshot.Encode", func() error {
		data = snapshot.Encode(st)
		return nil
	}); err != nil {
		return err
	}
	_, err = r.call(parent, cause, "snapshot.Decode", func() error {
		_, err := snapshot.Decode(data)
		return err
	})
	return err
}

// replayRanks rebuilds the closure of sampled served generations with
// core.BuildClosure, seeded as crowdrankd seeds it, and times each Step 4
// searcher on it in isolation. The build's span has one child span per
// step, laid end to end from the step timings BuildClosure returns.
func (r *runner) replayRanks(ctx context.Context, parent int, votes []crowd.Vote) error {
	var iters, oneEdges, uninformed, truthMS, smoothMS, propMS, sapsMS, bbMS, greedyMS []float64
	for _, rk := range sampleGenerations(r.ranks, replaySamples) {
		start := time.Now()
		cl, err := core.BuildClosure(objects, workers, votes[:rk.Votes], core.DefaultOptions(), servedRNG(rk.Seed, pipelineSalt))
		if err != nil {
			return err
		}
		build := r.span(parent, rk.Req, "core.BuildClosure", start, time.Now(), "ok")
		t := cl.Timings
		for _, step := range []struct {
			name string
			d    time.Duration
		}{{"truth", t.TruthDiscovery}, {"smooth", t.Smoothing}, {"propagate", t.Propagation}} {
			r.span(build, rk.Req, step.name, start, start.Add(step.d), "ok")
			start = start.Add(step.d)
		}
		truthMS, smoothMS, propMS = append(truthMS, ms(t.TruthDiscovery)), append(smoothMS, ms(t.Smoothing)), append(propMS, ms(t.Propagation))
		iters = append(iters, float64(cl.TruthIterations))
		oneEdges = append(oneEdges, float64(cl.OneEdges))
		uninformed = append(uninformed, float64(cl.UninformedPairs))
		params := search.DefaultSAPSParams()
		params.Objective = search.ObjectiveAllPairs
		d, err := r.call(parent, rk.Req, "search.SAPSContext", func() error {
			_, err := search.SAPSContext(ctx, cl.Closure, params, servedRNG(rk.Seed, searchSalt))
			return err
		})
		if err != nil {
			return err
		}
		sapsMS = append(sapsMS, ms(d))
		// The exact rung's budget: half of the request deadline.
		d, _ = r.call(parent, rk.Req, "search.BranchAndBoundContext", func() error {
			bctx, cancel := context.WithTimeout(ctx, rankDeadline/2)
			defer cancel()
			_, err := search.BranchAndBoundContext(bctx, cl.Closure, search.BranchAndBoundParams{})
			return err
		})
		bbMS = append(bbMS, ms(d))
		d, err = r.call(parent, rk.Req, "search.Greedy", func() error {
			_, err := search.Greedy(cl.Closure, search.ObjectiveAllPairs)
			return err
		})
		if err != nil {
			return err
		}
		greedyMS = append(greedyMS, ms(d))
	}
	for name, xs := range map[string][]float64{
		"truth.iterations": iters, "smooth.one_edges": oneEdges, "propagate.uninformed_pairs": uninformed,
		"truth.replay_ms": truthMS, "smooth.replay_ms": smoothMS, "propagate.replay_ms": propMS,
		"search.saps_ms": sapsMS, "search.bb_ms": bbMS, "search.greedy_ms": greedyMS,
	} {
		r.setExtra(name, median(xs))
	}
	return nil
}

// traceFile is what a traced run writes: every span, and the leader's
// /metrics at the measured phase's boundaries.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Spans    []span            `json:"spans"`
	Scrapes  map[string]series `json:"scrapes"`
}

func (r *runner) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{
		Workload: r.wl.name, Seed: r.cfg.seed, Spans: r.spans,
		Scrapes: map[string]series{"leader/measure-start": r.before, "leader/measure-end": r.after},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
