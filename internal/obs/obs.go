// Package obs is the daemon's dependency-free observability toolkit:
// atomic counters, scrape-time gauges, and fixed-bucket histograms
// collected in a Registry and exposed in the Prometheus text format, plus
// an injectable Clock (clock.go) so timing-dependent behavior stays
// testable without sleeps.
//
// The package is deliberately tiny and stdlib-only. Metric operations are
// lock-free (a single atomic op for counters, one atomic add plus a CAS
// loop for histogram sums); the registry mutex is touched only at
// registration and exposition time, never on the hot ingest→infer path.
//
// Every metric type is safe to use through a nil pointer: a nil *Counter
// or *Histogram silently discards observations and reads as zero. That
// lets lower layers (internal/journal) hold optional metric handles
// without caring whether observability is wired up.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension. Series under the same name are
// distinguished by their full label set; exposition orders labels by key.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 through a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// exposition. Bucket bounds are upper bounds in ascending order; an
// implicit +Inf bucket catches everything beyond the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs}
	h.counts = make([]atomic.Uint64, len(bs)+1)
	return h
}

// Observe records one value. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds — the unit every *_seconds
// histogram in the daemon uses. Safe on a nil receiver (no-op).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations (0 through nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of observed values (0 through nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencyBuckets returns the default request-latency bucket bounds in
// seconds: 500µs to 10s, roughly 2.5x apart — wide enough to cover both a
// cache-hit rank and a cold exact search.
func LatencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

type kind int

const (
	kindCounter kind = iota
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled sample stream inside a family. Exactly one of the
// value fields is set, matching the family's kind.
type series struct {
	labels  string // rendered `k="v",k2="v2"` (no braces), sorted by key
	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	bounds  []float64 // histogram families only
	series  []series
	byLabel map[string]int
}

// Registry holds registered metrics and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry. All methods are
// safe for concurrent use, and safe on a nil *Registry (registration
// returns nil metrics, exposition writes nothing).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyLocked finds or creates the family for name. A name registered
// under a different kind returns nil: the caller hands back a detached
// metric rather than corrupting the exposition (or panicking).
func (r *Registry) familyLocked(name, help string, k kind, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: bounds, byLabel: make(map[string]int)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		return nil
	}
	return f
}

// Counter registers (or finds) the counter name with the given labels.
// Re-registering the same name+labels returns the existing counter; a name
// already registered as a different type returns a detached counter that
// is never exposed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kindCounter, nil)
	if f == nil {
		return &Counter{}
	}
	if i, ok := f.byLabel[ls]; ok {
		return f.series[i].counter
	}
	c := &Counter{}
	f.byLabel[ls] = len(f.series)
	f.series = append(f.series, series{labels: ls, counter: c})
	return c
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values that already live elsewhere (queue depths, file
// sizes). fn must be safe for concurrent use; it is called outside the
// registry lock. Re-registering the same name+labels keeps the first fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kindGaugeFunc, nil)
	if f == nil {
		return
	}
	if _, ok := f.byLabel[ls]; ok {
		return
	}
	f.byLabel[ls] = len(f.series)
	f.series = append(f.series, series{labels: ls, fn: fn})
}

// Histogram registers (or finds) the histogram name with the given bucket
// upper bounds (nil means LatencyBuckets) and labels. All series of one
// family share the first registration's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kindHistogram, bounds)
	if f == nil {
		return newHistogram(bounds)
	}
	if i, ok := f.byLabel[ls]; ok {
		return f.series[i].hist
	}
	h := newHistogram(f.bounds)
	f.byLabel[ls] = len(f.series)
	f.series = append(f.series, series{labels: ls, hist: h})
	return h
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// sorted by label signature, histograms with cumulative buckets. The
// output is deterministic for a fixed set of registrations, which is what
// the golden exposition test pins.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot the structure under the lock, then read values and run
	// gauge funcs outside it: a gauge func may itself take locks, and
	// holding the registry mutex across arbitrary callbacks or the writer
	// invites ordering trouble.
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]family, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		cp := family{name: f.name, help: f.help, kind: f.kind, bounds: f.bounds}
		cp.series = make([]series, len(f.series))
		copy(cp.series, f.series)
		fams = append(fams, cp)
	}
	r.mu.Unlock()

	var b bytes.Buffer
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			writeSeries(&b, f, s)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func writeSeries(b *bytes.Buffer, f family, s series) {
	switch f.kind {
	case kindCounter:
		fmt.Fprintf(b, "%s %s\n", sampleName(f.name, s.labels), strconv.FormatUint(s.counter.Value(), 10))
	case kindGaugeFunc:
		fmt.Fprintf(b, "%s %s\n", sampleName(f.name, s.labels), formatFloat(s.fn()))
	case kindHistogram:
		var cum uint64
		for i, bound := range s.hist.bounds {
			cum += s.hist.counts[i].Load()
			fmt.Fprintf(b, "%s %d\n", sampleName(f.name+"_bucket", joinLabels(s.labels, `le="`+formatFloat(bound)+`"`)), cum)
		}
		cum += s.hist.counts[len(s.hist.bounds)].Load()
		fmt.Fprintf(b, "%s %d\n", sampleName(f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`)), cum)
		fmt.Fprintf(b, "%s %s\n", sampleName(f.name+"_sum", s.labels), formatFloat(s.hist.Sum()))
		fmt.Fprintf(b, "%s %d\n", sampleName(f.name+"_count", s.labels), cum)
	}
}

// Handler serves the registry over HTTP — mount it on GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteText(w); err != nil {
			// The scraper hung up mid-write; nothing useful to do.
			return
		}
	})
}

// renderLabels renders a sorted, escaped `k="v",k2="v2"` signature.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(valueEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func sampleName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// valueEscaper and helpEscaper apply the exposition format's escapes to
// label values and help text; a Replacer is safe for concurrent use.
var (
	valueEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
