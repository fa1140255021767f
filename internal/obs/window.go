package obs

import "sync"

// Window is a sliding window over the last n samples of one stream, read as
// an exact windowed percentile or as a mean. Unlike a cumulative histogram,
// whose quantiles never come back down, a window recovers on its own once
// the samples that pushed it up age out — what admission control, readiness
// and anomaly detection need.
//
// Alongside the arrival-order ring it keeps the same samples in ascending
// order, updated in place on every Add: the evicted sample is replaced by
// the new one and only the entries strictly between the two values shift.
// A percentile read is then one index, and neither Add nor a read
// allocates. Safe for concurrent use.
type Window struct {
	mu     sync.Mutex
	ring   []int64 // arrival order; ring[next] is the oldest once full
	sorted []int64 // sorted[:filled] holds the ring's samples, ascending
	next   int
	filled int
	sum    int64
}

// NewWindow returns a window over the last n samples (n < 1 is treated
// as 1).
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{ring: make([]int64, n), sorted: make([]int64, n)}
}

// Add records one sample, evicting the oldest once the window is full.
func (w *Window) Add(v int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sum += v
	if w.filled < len(w.ring) {
		s := w.sorted[:w.filled+1]
		k := upperBound(s[:w.filled], v)
		copy(s[k+1:], s[k:w.filled])
		s[k] = v
		w.ring[w.next] = v
		w.filled++
		w.next = (w.next + 1) % len(w.ring)
		return
	}
	old := w.ring[w.next]
	w.ring[w.next] = v
	w.next = (w.next + 1) % len(w.ring)
	w.sum -= old
	s := w.sorted
	switch {
	case v > old:
		// Drop the last copy of old; entries in (old, v) shift down one.
		i := upperBound(s, old) - 1
		k := lowerBound(s, v)
		copy(s[i:k-1], s[i+1:k])
		s[k-1] = v
	case v < old:
		// Drop the first copy of old; entries in (v, old) shift up one.
		i := lowerBound(s, old)
		k := upperBound(s, v)
		copy(s[k+1:i+1], s[k:i])
		s[k] = v
	}
}

// Percentile returns the p-th percentile of the held samples, the element
// at index (n*p)/100 of the n samples in ascending order (the maximum for
// p >= 100), together with n. An empty window returns (0, 0).
func (w *Window) Percentile(p int) (int64, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.filled
	if n == 0 {
		return 0, 0
	}
	i := (n * p) / 100
	if i >= n {
		i = n - 1
	}
	return w.sorted[i], n
}

// Mean returns the mean of the held samples (0 when empty).
func (w *Window) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.filled == 0 {
		return 0
	}
	return float64(w.sum) / float64(w.filled)
}

// lowerBound is the first index of s (ascending) holding a value >= v.
func lowerBound(s []int64, v int64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// upperBound is the first index of s (ascending) holding a value > v.
func upperBound(s []int64, v int64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
