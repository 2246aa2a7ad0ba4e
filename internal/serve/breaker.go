package serve

import (
	"sync"
	"time"

	"crowdrank/internal/obs"
)

// breaker is the exact-rung circuit breaker. Repeated overruns of exact
// search — attempts that hit the work cap (exactMaxSteps) or the
// deadline — mean the instance is too hard for exact search; paying for
// more doomed attempts only delays the floor every such request ends up
// with. After breakerThreshold consecutive overruns the breaker opens and
// the ladder goes straight to the floor. After breakerCooldown a single
// half-open probe lets one request try exact search again: success closes
// the breaker, another overrun re-opens it for a fresh cooldown.
type breaker struct {
	mu    sync.Mutex
	clock obs.Clock    // the server clock, so tests drive transitions without sleeps
	trips *obs.Counter // counts transitions to open

	failures int
	open     bool
	probing  bool // a half-open probe is in flight
	until    time.Time
}

func newBreaker(clock obs.Clock, trips *obs.Counter) *breaker {
	return &breaker{clock: clock, trips: trips}
}

// allow reports whether the exact rung may run now. While open it returns
// false until the cooldown elapses, then admits exactly one probe
// (half-open) and blocks the rest until that probe reports.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing || b.clock.Now().Before(b.until) {
		return false
	}
	b.probing = true
	return true
}

// success reports an exact-rung proof within the work cap and deadline.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.open = false
	b.probing = false
}

// failure reports an exact-rung overrun: the work cap or the deadline.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		// The half-open probe overran: re-open for a fresh cooldown.
		b.probing = false
		b.open = true
		b.until = b.clock.Now().Add(breakerCooldown)
		b.trips.Inc()
		return
	}
	b.failures++
	if b.failures >= breakerThreshold {
		b.open = true
		b.failures = 0
		b.until = b.clock.Now().Add(breakerCooldown)
		b.trips.Inc()
	}
}

// state names the breaker position for responses and /healthz.
func (b *breaker) state() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.probing:
		return "half-open"
	case b.open && b.clock.Now().Before(b.until):
		return "open"
	case b.open:
		return "half-open" // cooldown elapsed; next allow() admits the probe
	default:
		return "closed"
	}
}
