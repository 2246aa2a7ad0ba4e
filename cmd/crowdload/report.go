package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit; BENCHMARK.json
// declares the same names with their direction and regression bound.
type metricDef struct{ name, unit string }

// endToEnd metrics describe what a user of the daemon sees. Each
// workload reports every one; "the operation" is the workload's primary
// request class (POST /votes on ingest, GET /rank on rank-steady and
// mixed, a SIGKILL-to-ready restart on recover).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rss_mb", "MiB"},
	{"accuracy", "frac"},
}

// perLayer metrics come from a traced run: /metrics deltas over the
// measured phase, the benchmark's own timing of calls into each layer,
// and the in-process replay. A layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"loadgen.p90_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.client_retries", "count"},
	{"http.votes.server_ms", "ms"},
	{"http.votes.wire_ms", "ms"},
	{"http.rank.server_ms", "ms"},
	{"http.rank.wire_ms", "ms"},
	{"http.rejections", "count"},
	{"serve.dup_ratio", "ratio"},
	{"serve.rank.saps", "count"},
	{"serve.rank.greedy", "count"},
	{"serve.rank.exact", "count"},
	{"serve.breaker.trips", "count"},
	{"serve.closure.builds", "count"},
	{"serve.closure.hit_ratio", "ratio"},
	{"serve.rank.stage_share", "ratio"},
	{"truth.busy_s", "s"},
	{"truth.mean_ms", "ms"},
	{"truth.replay_ms", "ms"},
	{"truth.iterations", "count"},
	{"smooth.busy_s", "s"},
	{"smooth.mean_ms", "ms"},
	{"smooth.replay_ms", "ms"},
	{"smooth.one_edges", "count"},
	{"propagate.busy_s", "s"},
	{"propagate.mean_ms", "ms"},
	{"propagate.replay_ms", "ms"},
	{"propagate.uninformed_pairs", "count"},
	{"search.busy_s", "s"},
	{"search.mean_ms", "ms"},
	{"search.saps_ms", "ms"},
	{"search.bb_ms", "ms"},
	{"search.greedy_ms", "ms"},
	{"journal.appends", "count"},
	{"journal.append_mean_us", "us"},
	{"journal.sync_append_us", "us"},
	{"journal.bytes_per_vote", "B"},
	{"journal.replay_records_per_s", "1/s"},
	{"snapshot.writes", "count"},
	{"snapshot.write_mean_ms", "ms"},
	{"snapshot.verify_mean_ms", "ms"},
	{"snapshot.bytes_per_vote", "B"},
	{"snapshot.load_ms", "ms"},
	{"recovery.daemon_ms", "ms"},
	{"replica.records_streamed", "count"},
	{"replica.snapshot_bootstraps", "count"},
	{"replica.bootstrap_ms", "ms"},
	{"replica.catchup_ms", "ms"},
	{"replica.catchup_records_per_s", "1/s"},
	{"daemon.cpu_ms_per_req", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line a run prints last.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as kept in a results file: the outcome plus what
// it was run with, the sample count behind each metric, and any failed
// checks.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	outcome
	Samples  map[string]int `json:"samples"`
	Failures []string       `json:"failures,omitempty"`
}

// result assembles the run's record: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *runner) result() runRecord {
	rec := runRecord{
		Workload: r.wl.name, Seed: r.cfg.seed, Trace: r.cfg.trace,
		outcome:  outcome{Correct: len(r.failures) == 0, Attempted: len(r.samples), Metrics: make(map[string]metric)},
		Samples:  make(map[string]int),
		Failures: r.failures,
	}
	for _, s := range r.samples {
		if s.Err != nil {
			rec.Failed++
		}
	}
	values, samples := r.endToEnd(), r.sampleCounts()
	defs := endToEnd
	if r.cfg.trace {
		values, defs = r.layers(), perLayer
	}
	for _, d := range defs {
		rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		if n, ok := samples[d.name]; ok {
			rec.Samples[d.name] = n
		}
	}
	return rec
}

func (r *runner) endToEnd() map[string]float64 {
	lat := r.latencies(r.wl.primary)
	return map[string]float64{
		"setup_s":  median(r.setups),
		"p50_ms":   lat.Percentile(50),
		"rss_mb":   r.rssMB,
		"accuracy": median(r.accuracy),
	}
}

func (r *runner) sampleCounts() map[string]int {
	lat := r.latencies(r.wl.primary)
	return map[string]int{
		"setup_s": len(r.setups), "p50_ms": len(lat), "loadgen.p90_ms": len(lat),
		"accuracy": len(r.accuracy), "daemon.cpu_ms_per_req": r.ops,
		"loadgen.late_p99_ms": len(r.samples),
	}
}

// layers derives the per-layer metrics from the leader's /metrics delta
// over the measured phase, the request samples, and the replay.
func (r *runner) layers() map[string]float64 {
	d := delta(r.before, r.after)
	m := map[string]float64{
		"loadgen.p90_ms":         r.latencies(r.wl.primary).Percentile(90),
		"loadgen.late_p99_ms":    ms(r.lateness(99)),
		"loadgen.client_retries": float64(r.retries()),
		"http.rejections":        d.sum("crowdrankd_queue_rejections_total"),
		"serve.rank.saps":        d.sum("crowdrankd_rank_requests_total", `algorithm="saps"`),
		"serve.rank.greedy":      d.sum("crowdrankd_rank_requests_total", `algorithm="greedy"`),
		"serve.rank.exact":       d.sum("crowdrankd_rank_requests_total", `algorithm="exact:heldkarp"`) + d.sum("crowdrankd_rank_requests_total", `algorithm="exact:branchbound"`),
		"serve.breaker.trips":    d.sum("crowdrankd_breaker_trips_total"),
		"journal.appends":        d.sum("crowdrankd_journal_appends_total"),
		"snapshot.writes":        d.sum("crowdrankd_snapshots_total", `result="ok"`),
		"daemon.cpu_ms_per_req":  r.cpuMillis / float64(max(r.ops, 1)),
	}
	for _, route := range []string{"votes", "rank"} {
		server := d.hist("crowdrankd_http_request_seconds", `route="`+route+`"`)
		if server.count < 1 {
			continue
		}
		var wire []float64
		for _, s := range r.samples {
			if s.Class == route && s.Err == nil {
				wire = append(wire, ms(s.End.Sub(s.Sent)))
			}
		}
		m["http."+route+".server_ms"] = server.meanMillis()
		m["http."+route+".wire_ms"] = dist(wire).Mean() - server.meanMillis()
	}
	accepted := d.sum("crowdrankd_ingest_votes_total", `result="accepted"`)
	dups := d.sum("crowdrankd_ingest_votes_total", `result="duplicate"`)
	if accepted+dups > 0 {
		m["serve.dup_ratio"] = dups / (accepted + dups)
	}
	busy := 0.0
	for _, stage := range []string{"truth", "smooth", "propagate", "search"} {
		h := d.hist("crowdrankd_infer_stage_seconds", `stage="`+stage+`"`)
		m[stage+".busy_s"] = h.sum
		m[stage+".mean_ms"] = h.meanMillis()
		busy += h.sum
	}
	builds := d.hist("crowdrankd_infer_stage_seconds", `stage="truth"`).count
	searches := d.hist("crowdrankd_infer_stage_seconds", `stage="search"`).count
	m["serve.closure.builds"] = builds
	if searches > 0 {
		m["serve.closure.hit_ratio"] = 1 - builds/searches
	}
	if rank := d.hist("crowdrankd_http_request_seconds", `route="rank"`); rank.sum > 0 {
		m["serve.rank.stage_share"] = busy / rank.sum
	}
	m["journal.append_mean_us"] = d.hist("crowdrankd_journal_append_seconds").meanMillis() * 1000
	m["snapshot.write_mean_ms"] = d.hist("crowdrankd_snapshot_write_seconds").meanMillis()
	m["snapshot.verify_mean_ms"] = d.hist("crowdrankd_snapshot_load_seconds").meanMillis()
	for k, v := range r.extra {
		m[k] = v
	}
	return m
}

// print writes the human-readable summary, then the result line.
func (rec runRecord) print(w io.Writer) error {
	status := "all output checks passed"
	if !rec.Correct {
		status = "OUTPUT CHECKS FAILED: " + strings.Join(rec.Failures, "; ")
	}
	fmt.Fprintf(w, "crowdload %s seed=%d trace=%v: %d attempted, %d failed; %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, status)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Metrics[d.name]
		n := ""
		if c, ok := rec.Samples[d.name]; ok {
			n = fmt.Sprintf("n=%d", c)
			leaf := d.name[strings.LastIndexByte(d.name, '.')+1:]
			digits, isPercentile := strings.CutSuffix(strings.TrimPrefix(leaf, "p"), "_ms")
			if p, err := strconv.ParseFloat(digits, 64); isPercentile && err == nil {
				n += fmt.Sprintf(", %d beyond", beyond(c, p))
				if beyond(c, p) < 10 {
					n += " (too few: lengthen -seconds)"
				}
			}
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", d.name, m.Value, m.Unit, n)
	}
	line, err := json.Marshal(rec.outcome)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
