package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refPercentiles is the copy-and-sort rule Window replaces: sort a copy of
// the held samples and index (n*p)/100, for each p.
func refPercentiles(held []int64, ps []int) []int64 {
	buf := append([]int64(nil), held...)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	out := make([]int64, len(ps))
	for k, p := range ps {
		i := (len(buf) * p) / 100
		if i >= len(buf) {
			i = len(buf) - 1
		}
		out[k] = buf[i]
	}
	return out
}

// TestWindowMatchesCopyAndSort checks every window size 1..300 against the
// reference on random inputs, before the ring wraps and for two laps after.
// Narrow value ranges force many duplicates, the case the in-place sorted
// update must get right.
func TestWindowMatchesCopyAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := []int{0, 50, 95, 99, 100}
	for n := 1; n <= 300; n++ {
		span := int64(1 + rng.Intn(4))
		if n%2 == 0 {
			span = 1_000_000
		}
		w := NewWindow(n)
		var all []int64
		for i := 0; i < 3*n+1; i++ {
			v := rng.Int63n(span)
			if rng.Intn(8) == 0 {
				v = -v
			}
			w.Add(v)
			all = append(all, v)
			// Compare at every step for small windows; for large ones at the
			// fill boundary, the last step and a random sample in between.
			if n > 40 && i != n-1 && i != n && i != 3*n && rng.Intn(16) != 0 {
				continue
			}
			held := all
			if len(held) > n {
				held = held[len(held)-n:]
			}
			want := refPercentiles(held, ps)
			for k, p := range ps {
				got, cnt := w.Percentile(p)
				if cnt != len(held) {
					t.Fatalf("n=%d step %d: count %d, want %d", n, i, cnt, len(held))
				}
				if got != want[k] {
					t.Fatalf("n=%d step %d: p%d = %d, want %d (held %v)", n, i, p, got, want[k], held)
				}
			}
			var sum int64
			for _, v := range held {
				sum += v
			}
			if got, want := w.Mean(), float64(sum)/float64(len(held)); got != want {
				t.Fatalf("n=%d step %d: mean = %v, want %v", n, i, got, want)
			}
		}
	}
}

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(4)
	if v, n := w.Percentile(95); v != 0 || n != 0 {
		t.Fatalf("empty Percentile = (%d, %d), want (0, 0)", v, n)
	}
	if m := w.Mean(); m != 0 {
		t.Fatalf("empty Mean = %v, want 0", m)
	}
}

// TestWindowZeroAlloc: adding and reading never allocate, full or filling.
func TestWindowZeroAlloc(t *testing.T) {
	w := NewWindow(256)
	var v int64
	add := testing.AllocsPerRun(1000, func() {
		v = (v*7919 + 13) % 100_000
		w.Add(v)
	})
	read := testing.AllocsPerRun(1000, func() {
		w.Percentile(95)
		w.Mean()
	})
	if add != 0 || read != 0 {
		t.Fatalf("allocs per Add = %v, per read = %v; want 0 and 0", add, read)
	}
}

// TestWindowConcurrent races writers against readers (run under -race) and
// then checks the sorted view still holds exactly the ring's samples.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				w.Add(int64((i*31 + g) % 97))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if lo, _ := w.Percentile(0); lo < 0 {
					t.Errorf("p0 = %d, below every sample", lo)
					return
				}
				w.Mean()
			}
		}()
	}
	wg.Wait()
	ring := append([]int64(nil), w.ring...)
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	for i := range ring {
		if ring[i] != w.sorted[i] {
			t.Fatalf("sorted view diverged from the ring at %d: %v vs %v", i, w.sorted, ring)
		}
	}
}

func BenchmarkWindowAdd(b *testing.B) {
	w := NewWindow(256)
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = rng.Int63n(1_000_000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(vals[i&1023])
	}
}
