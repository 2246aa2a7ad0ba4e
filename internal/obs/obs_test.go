package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.")
	c.Inc()
	c.Add(2)
	r.GaugeFunc("queue_depth", "Current depth.", func() float64 { return 3 }, L("queue", "rank"))
	r.GaugeFunc("disk_bytes", "Bytes on disk.", func() float64 { return 1.5 })

	got := scrape(t, r)
	for _, want := range []string{
		"# HELP requests_total Total requests.\n# TYPE requests_total counter\nrequests_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth{queue=\"rank\"} 3\n",
		"# TYPE disk_bytes gauge\ndisk_bytes 1.5\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, got)
		}
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(2) // +Inf bucket
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}

	got := scrape(t, r)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_sum 3.05`,
		`lat_seconds_count 4`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, got)
		}
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "", nil)
	h.ObserveDuration(1500 * time.Millisecond)
	if got := h.Sum(); got < 1.49 || got > 1.51 {
		t.Fatalf("Sum = %v, want 1.5", got)
	}
}

// TestLabelOrderingDeterministic pins that label rendering sorts by key
// and series sort by signature, so the exposition is stable regardless of
// registration order.
func TestLabelOrderingDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", L("zeta", "1"), L("alpha", "2")).Inc()
	r.Counter("x_total", "", L("alpha", "1"), L("zeta", "0")).Inc()

	got := scrape(t, r)
	first := strings.Index(got, `x_total{alpha="1",zeta="0"} 1`)
	second := strings.Index(got, `x_total{alpha="2",zeta="1"} 1`)
	if first < 0 || second < 0 || first > second {
		t.Fatalf("series missing or out of order:\n%s", got)
	}
}

func TestReregistrationReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "", L("k", "v"))
	b := r.Counter("dup_total", "", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registered counter should share state")
	}
}

// TestKindCollisionReturnsDetached pins the no-panic contract: a name
// registered under one type and requested as another yields a working but
// unexposed metric rather than a panic or a corrupt exposition.
func TestKindCollisionReturnsDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "").Inc()
	r.GaugeFunc("clash", "", func() float64 { return 9 }) // must not crash
	h := r.Histogram("clash", "", nil)
	h.Observe(1)

	got := scrape(t, r)
	if !strings.Contains(got, "# TYPE clash counter") {
		t.Fatalf("original counter family lost:\n%s", got)
	}
	if strings.Contains(got, "clash 9") || strings.Contains(got, "clash_bucket") {
		t.Fatalf("detached metrics leaked into exposition:\n%s", got)
	}
}

// TestNilSafety pins that every metric operation and the registry itself
// tolerate nil receivers — the contract lower layers rely on to hold
// optional metric handles.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry should hand out nil metrics")
	}
	r.GaugeFunc("x", "", func() float64 { return 0 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WriteText: %v", err)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("path", "a\\b\"c\nd")).Inc()
	got := scrape(t, r)
	want := `esc_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(got, want) {
		t.Fatalf("want %q in:\n%s", want, got)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(7)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 7") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestConcurrentObservations exercises the atomic paths under the race
// detector: concurrent metric ops and scrapes must be data-race free and
// lose no increments.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", nil)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = scrape(t, r)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*each {
		t.Fatalf("lost increments: %d != %d", c.Value(), workers*each)
	}
	if h.Count() != workers*each {
		t.Fatalf("lost observations: %d != %d", h.Count(), workers*each)
	}
}
