package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one operation as the load generator saw it. Times are measured
// from when the operation was due (open loop) or sent (closed loop).
type sample struct {
	slot    int
	kase    int // xsltmark: index of the case that ran
	latency time.Duration
	ttfb    time.Duration
	ok      bool
	end     time.Time // completion, for the closed loop's throughput
}

// openLoop issues n operations at a fixed rate from workers goroutines:
// operation i is due at start + i/rate whatever happened to the ones before
// it, and its latency is timed from that due time, so a stall is charged to
// every operation queued behind it. lag collects how late a worker that was
// waiting for the next due time woke up: the generator's own lateness, not
// the server's.
func openLoop(n int, rate float64, workers int, op func(slot int, due time.Time) sample) (samples []sample, lag []time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var myLag []time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				if time.Until(due) > 0 {
					sleepUntil(due)
					myLag = append(myLag, time.Since(due))
				}
				mine = append(mine, op(i, due))
			}
			mu.Lock()
			samples = append(samples, mine...)
			lag = append(lag, myLag...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool { return samples[i].slot < samples[j].slot })
	return samples, lag
}

// sleepUntil blocks until t. time.Sleep wakes an idle Go process only at
// millisecond granularity (the runtime's poller timeout), which would
// charge up to a millisecond of generator lateness to every operation of a
// sub-millisecond schedule; the final stretch is therefore slept with a
// nanosleep on the worker's own thread.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// closedLoop runs workers goroutines that each issue their next operation
// as soon as the previous one completes, until d has passed.
func closedLoop(d time.Duration, workers int, op func(slot int, sent time.Time) sample) (samples []sample) {
	end := time.Now().Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				now := time.Now()
				if !now.Before(end) {
					break
				}
				mine = append(mine, op(int(next.Add(1)-1), now))
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}

// quantile returns the q-quantile of ds by nearest rank, 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median of ds.
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
