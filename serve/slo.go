package serve

// Per-tenant SLO burn-rate tracking. The SLO is availability-style over a
// sliding window of recent requests: a request is "bad" when it errored or
// exceeded the latency target. With objective o (say 0.99), the error budget
// is 1-o; the burn rate is badFraction / (1-o) — 1.0 means bad requests are
// arriving exactly as fast as the budget allows, 2.0 means the budget will
// be exhausted in half the window. The gauge exposes burn×1000 because the
// registry's gauges are integers.

import (
	"sync"
	"time"

	"repro/internal/obs"
)

type sloTracker struct {
	target    time.Duration // latency above this is "bad" (0 = latency never bad)
	objective float64       // fraction of requests that must be good, e.g. 0.99
	window    int

	mu      sync.Mutex
	tenants map[string]*obs.Window // per tenant: 1 per bad request, 0 per good
}

func newSLOTracker(target time.Duration, objective float64, window int) *sloTracker {
	if objective <= 0 || objective >= 1 {
		objective = 0.99
	}
	if window <= 0 {
		window = 256
	}
	return &sloTracker{
		target: target, objective: objective, window: window,
		tenants: map[string]*obs.Window{},
	}
}

// record folds one finished request into the tenant's window and returns the
// updated burn rate ×1000 for the gauge: the window's mean is the fraction
// of recent requests that were bad.
func (t *sloTracker) record(tenant string, wall time.Duration, failed bool) int64 {
	var bad int64
	if failed || (t.target > 0 && wall > t.target) {
		bad = 1
	}
	t.mu.Lock()
	w := t.tenants[tenant]
	if w == nil {
		w = obs.NewWindow(t.window)
		t.tenants[tenant] = w
	}
	t.mu.Unlock()
	w.Add(bad)
	return int64(w.Mean() / (1 - t.objective) * 1000)
}
