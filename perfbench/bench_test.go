package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSameSeedSameInputs: one seed fixes the dataset and every request and
// write stream; another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	if a, b := genDataset(7).fingerprint(), genDataset(7).fingerprint(); a != b {
		t.Fatalf("dataset fingerprint differs for one seed: %x vs %x", a, b)
	}
	if genDataset(7).fingerprint() == genDataset(8).fingerprint() {
		t.Fatal("seeds 7 and 8 gave the same dataset")
	}
	draw := func(seed int64) (reads []string, writes [][]any) {
		for _, kind := range []string{"lookup", "report"} {
			s := newReadStream(kind, streamSeed(seed, "reads"))
			for i := 0; i < 500; i++ {
				reads = append(reads, s.next().path())
			}
		}
		ws := newWriteStream(streamSeed(seed, "writes"))
		for i := 0; i < 100; i++ {
			var row []any
			for _, v := range ws.next() {
				row = append(row, v)
			}
			writes = append(writes, row)
		}
		return reads, writes
	}
	r1, w1 := draw(7)
	r2, w2 := draw(7)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(w1, w2) {
		t.Fatal("request or write stream differs for one seed")
	}
	if r3, _ := draw(8); reflect.DeepEqual(r1, r3) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

// TestWorkloadShape checks the properties the workloads' rationale rests
// on: lookup's result-cache hit ratio lies strictly between report's
// (about 0) and 1, and report's responses are at least 100 times lookup's.
func TestWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full dataset")
	}
	e, err := setupEnv(filepath.Join(t.TempDir(), "wal"), genDataset(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	h := e.srv.Handler()
	measure := func(kind string, n int) (hitRatio, meanBytes float64) {
		before := e.srv.CacheStats()
		s := newReadStream(kind, streamSeed(3, "reads"))
		var bytes int
		for i := 0; i < n; i++ {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, s.next().path(), nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", kind, rr.Code, rr.Body.String())
			}
			bytes += rr.Body.Len()
		}
		after := e.srv.CacheStats()
		hits := float64(after.Hits - before.Hits)
		return hits / (hits + float64(after.Misses-before.Misses)), float64(bytes) / float64(n)
	}
	lookupHits, lookupBytes := measure("lookup", 3000)
	reportHits, reportBytes := measure("report", 30)
	t.Logf("lookup: hit ratio %.3f, %.0f B/response; report: hit ratio %.3f, %.0f B/response",
		lookupHits, lookupBytes, reportHits, reportBytes)
	if !(reportHits < lookupHits && lookupHits < 1) || reportHits > 0.05 {
		t.Errorf("hit ratios: want report (%.3f) ≈ 0 < lookup (%.3f) < 1", reportHits, lookupHits)
	}
	if reportBytes < 100*lookupBytes {
		t.Errorf("report responses (%.0f B) are not 100× lookup's (%.0f B)", reportBytes, lookupBytes)
	}
}
