package main

import (
	"strings"
	"testing"
	"time"

	"crowdrank/internal/feq"
	"crowdrank/internal/obs"
)

// exposition renders a registry the way the daemon's /metrics does.
func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSeriesParseAndDelta(t *testing.T) {
	reg := obs.NewRegistry()
	saps := reg.Counter("crowdrankd_rank_requests_total", "", obs.L("algorithm", "saps"))
	greedy := reg.Counter("crowdrankd_rank_requests_total", "", obs.L("algorithm", "greedy"))
	stage := reg.Histogram("crowdrankd_infer_stage_seconds", "", nil, obs.L("stage", "search"))
	saps.Add(3)
	stage.ObserveDuration(10 * time.Millisecond)
	before, err := parseSeries(exposition(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	saps.Add(5)
	greedy.Add(2)
	stage.ObserveDuration(20 * time.Millisecond)
	stage.ObserveDuration(30 * time.Millisecond)
	after, err := parseSeries(exposition(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d.sum("crowdrankd_rank_requests_total", `algorithm="saps"`); !feq.Eq(got, 5) {
		t.Errorf("saps delta %v, want 5", got)
	}
	if got := d.sum("crowdrankd_rank_requests_total"); !feq.Eq(got, 7) {
		t.Errorf("all-algorithm delta %v, want 7", got)
	}
	h := d.hist("crowdrankd_infer_stage_seconds", `stage="search"`)
	if !feq.Eq(h.count, 2) || !feq.Close(h.meanMillis(), 25, 1e-6) {
		t.Errorf("search stage delta count=%v mean=%vms, want 2 and 25ms", h.count, h.meanMillis())
	}
	if got := d.sum("crowdrankd_infer_stage_seconds_count", `stage="truth"`); !feq.Zero(got) {
		t.Errorf("absent series should sum to 0, got %v", got)
	}
	if !feq.Zero((hist{}).meanMillis()) {
		t.Error("an empty histogram's mean should read 0")
	}
}

func TestSeriesRefusesMalformedLines(t *testing.T) {
	for _, text := range []string{"novalue", "crowdrankd_votes abc"} {
		if _, err := parseSeries(text); err == nil {
			t.Errorf("parsed %q", text)
		}
	}
}
