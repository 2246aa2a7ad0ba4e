package serve

// Golden test of the Prometheus exposition. The golden file pins the
// metric name set, the # TYPE lines, and every series signature with
// its label ordering — renaming a metric, dropping a label, or letting
// registration order leak into the output fails here. Values and bucket
// boundaries are NOT pinned (values vary per run; boundaries are pinned
// by the obs package's own tests): sample values are stripped and the
// histogram le label is collapsed before comparison.
//
// Regenerate with: go test ./internal/serve -run TestMetricsExpositionGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"crowdrank/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

var leLabel = regexp.MustCompile(`le="[^"]*"`)

// signatures reduces an exposition to its stable shape: # TYPE lines
// verbatim plus the sorted, deduplicated set of series signatures with
// sample values stripped and bucket le labels collapsed.
func signatures(exposition string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP"):
			continue
		case strings.HasPrefix(line, "# TYPE"):
			out = append(out, line)
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		sig := leLabel.ReplaceAllString(line[:cut], `le="*"`)
		if !seen[sig] {
			seen[sig] = true
			out = append(out, "series "+sig)
		}
	}
	sort.Strings(out)
	return out
}

func TestMetricsExpositionGolden(t *testing.T) {
	cfg := DefaultConfig(5, 2)
	cfg.Seed = 99
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")
	s := newTestServer(t, cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Deterministic traffic exercising every instrumented path: an
	// accepted batch, a full-duplicate resubmission, a rank, a snapshot,
	// a health check, and a malformed rank request for a 400.
	var ingest ingestRequest
	for _, v := range agreeingVotes(5, 2) {
		ingest.Votes = append(ingest.Votes, voteJSON{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI})
	}
	batch, err := json.Marshal(ingest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/votes", "application/json", bytes.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /votes: status %d", resp.StatusCode)
		}
	}
	for path, want := range map[string]int{
		"/rank":                 http.StatusOK,
		"/rank?deadline_ms=abc": http.StatusBadRequest,
		"/healthz":              http.StatusOK,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(srv.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot: status %d", resp.StatusCode)
	}

	// Scrape over HTTP first so the route="metrics" request series
	// exists, and pin the exposition content type while at it. The body
	// is read to EOF: it is chunked, and its last chunk is written only
	// after the instrumented handler has counted the request.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type = %q", ct)
	}

	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(signatures(buf.String()), "\n") + "\n"

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition shape drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestHTTPRequestCounterAllocs pins what counting one HTTP request costs:
// once its (route, code) series exists, another request on it allocates
// nothing and still lands on the registered series, also when requests
// finish concurrently.
func TestHTTPRequestCounterAllocs(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	m.httpRequest("votes", http.StatusOK)
	if allocs := testing.AllocsPerRun(100, func() { m.httpRequest("votes", http.StatusOK) }); allocs != 0 {
		t.Errorf("counting a request allocates %v times, want 0", allocs)
	}
	// Handlers finish concurrently, some on series not yet registered.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				m.httpRequest("votes", http.StatusOK)
				m.httpRequest("votes", http.StatusBadRequest)
			}
		}()
	}
	wg.Wait()
	// AllocsPerRun makes one warm-up call before its 100 counted ones.
	for code, want := range map[string]uint64{"200": 302, "400": 200} {
		c := m.reg.Counter("crowdrankd_http_requests_total", "", obs.L("route", "votes"), obs.L("code", code))
		if got := c.Value(); got != want {
			t.Errorf("code %s counted %d requests, want %d", code, got, want)
		}
	}
}
