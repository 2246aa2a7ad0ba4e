package main

import (
	"encoding/json"
	"os"
	"testing"

	"crowdrank/internal/feq"
)

func runsOf(workload string, values ...float64) []runRecord {
	var out []runRecord
	for _, v := range values {
		out = append(out, runRecord{Workload: workload, outcome: outcome{
			Correct: true, Metrics: map[string]metric{"p50_ms": {Value: v, Unit: "ms"}},
		}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	defs := []boundDef{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}
	base := runsOf("w", 10, 10.1, 9.9, 10, 10.05)
	for _, c := range []struct {
		name   string
		change []runRecord
		want   string
	}{
		{"within bound", runsOf("w", 10.5, 10.4, 10.6, 10.5, 10.5), "same"},
		{"slower beyond bound", runsOf("w", 11.5, 11.6, 11.4, 11.5, 11.5), "worse"},
		{"faster beyond bound", runsOf("w", 8, 8.1, 7.9, 8, 8), "better"},
		{"noisy and overlapping", runsOf("w", 6, 14, 9, 12, 8), "unresolved"},
		{"noisy but every run faster", runsOf("w", 5, 9.5, 6, 9, 5.5), "better"},
	} {
		got := compareRuns(defs, base, c.change)
		if len(got) != 1 || got[0].Verdict != c.want {
			t.Errorf("%s: got %+v, want verdict %q", c.name, got, c.want)
		}
	}
	higher := []boundDef{{Name: "p50_ms", Better: "higher", Bound: 0.1}}
	if got := compareRuns(higher, base, runsOf("w", 8, 8.1, 7.9, 8, 8)); got[0].Verdict != "worse" {
		t.Errorf("a drop in a higher-is-better metric is worse, got %q", got[0].Verdict)
	}
}

// TestCompareFailuresOutweighGains: failed requests are left out of the
// percentiles, so a change that answers its slow requests with fast
// refusals reads faster. It must be judged worse, not better.
func TestCompareFailuresOutweighGains(t *testing.T) {
	defs := []boundDef{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}
	withFailures := func(runs []runRecord, attempted, failed int) []runRecord {
		for i := range runs {
			runs[i].Attempted, runs[i].Failed = attempted, failed
		}
		return runs
	}
	base := withFailures(runsOf("w", 10, 10.1, 9.9, 10, 10.05), 1000, 0)
	faster := withFailures(runsOf("w", 8, 8.1, 7.9, 8, 8), 1000, 0)
	if got := compareRuns(defs, base, faster); got[0].Verdict != "better" {
		t.Fatalf("faster with no failures: got %q, want better", got[0].Verdict)
	}
	refusing := withFailures(runsOf("w", 8, 8.1, 7.9, 8, 8), 1000, 50)
	got := compareRuns(defs, base, refusing)
	if got[0].Verdict != "worse" {
		t.Errorf("faster but failing 5%% of requests: got %q, want worse", got[0].Verdict)
	}
	if !feq.Eq(got[0].ChFail, 0.05) || !feq.Zero(got[0].BaseFail) {
		t.Errorf("failure shares %v, %v; want 0 and 0.05", got[0].BaseFail, got[0].ChFail)
	}
	if got := compareRuns(defs, refusing, refusing); got[0].Verdict != "same" {
		t.Errorf("equal failure shares must not decide the row: got %q, want same", got[0].Verdict)
	}
}

// TestQuartilesMatchPython pins the quartile rule the steadiness check
// uses: Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !feq.Eq(q1, c.q1) || !feq.Eq(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkDeclarationMatches keeps BENCHMARK.json and the metrics
// and workloads crowdload reports in step.
func TestBenchmarkDeclarationMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []boundDef                   `json:"end_to_end"`
		PerLayer  []boundDef                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, crowdload runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, crowdload has %q (why must match too)", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []boundDef, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, crowdload reports %d", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: declared %s [%s], crowdload reports %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	sawSetup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
		sawSetup = sawSetup || d.Name == "setup_s"
	}
	if !sawSetup {
		t.Error("setup_s must be declared")
	}
}
