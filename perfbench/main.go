// Command perfbench is the repository's end-to-end benchmark: xsltd over a
// seeded dept/emp dataset on a loopback listener, and the library API over
// the XSLTMark cases. See WORKLOADS.md for the workloads and metrics.
//
//	perfbench -workload lookup|report|mixed|xsltmark -seed N -seconds S -trace 0|1 [-dir D]
//
// With -trace 0 it runs the named workload untraced and prints the
// end-to-end metrics; with -trace 1 it replays a seeded sample of every
// workload through the layers' public functions and prints the per-layer
// metrics. The last line of standard output is the result as JSON.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a timed run sets up; setup_s and recovery_s
// report the median. Both are process CPU time, which moved less with the
// host's load than wall time did (see WORKLOADS.md).
const setupReps = 3

// marksPerSetup is how many times each set-up repeats xsltmark's own
// set-up, which takes milliseconds; its setup_s is the median of all.
const marksPerSetup = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "lookup, report, mixed, xsltmark, or all to run the four in turn, each in a process of its own")
	seed := flag.Int64("seed", 1, "seed of the dataset and of every request and write stream")
	seconds := flag.Float64("seconds", 12, "measured seconds of one run")
	trace := flag.Int("trace", 0, "1 = traced per-layer replay instead of the timed run")
	dir := flag.String("dir", ".bench_build", "directory for WAL directories and span files")
	flag.Parse()
	ws := workloads
	if *wname != "all" {
		w, ok := workloadByName(*wname)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *wname))
		}
		ws = []workload{w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("bad -seconds %v or -trace %d", *seconds, *trace))
	}
	if *trace == 1 {
		ws = ws[:1] // the traced run replays every workload
	}
	if len(ws) == 1 {
		if !runOne(ws[0], *seed, *seconds, *trace, *dir) {
			os.Exit(1)
		}
		return
	}
	// Each workload of "all" runs in a process of its own, so no workload
	// inherits another's heap or peak resident set.
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	correct := true
	for _, w := range ws {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", "0", "-dir", *dir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.name, err)
			correct = false
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// runOne runs one workload, prints its stamp, table and result, and reports
// whether its outputs were correct.
func runOne(w workload, seed int64, seconds float64, trace int, dir string) bool {
	runDir := filepath.Join(dir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)
	printJSON(os.Stdout, map[string]any{"environment": envStamp(w, seed, trace)})
	var res *result
	var err error
	if trace == 1 {
		res, err = tracedRun(seed, seconds, runDir)
	} else {
		res, err = timedRun(w, seed, seconds, runDir)
	}
	if err != nil {
		os.RemoveAll(runDir)
		fail(err)
	}
	printTable(res)
	printJSON(os.Stdout, res)
	return res.Correct
}

// timedRun sets up setupReps times, runs the workload once untraced over
// the last setup, and derives the end-to-end metrics.
func timedRun(w workload, seed int64, seconds float64, runDir string) (*result, error) {
	nproc := runtime.NumCPU()
	// envSetups, markSetups and compiles are process CPU times of the
	// shared set-up, of setupMarks and of its compiles.
	var envSetups, markSetups, compiles, setupWalls, recoveries []time.Duration
	var e *env
	var marks *markSuite
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.close()
			e, marks = nil, nil
			runtime.GC()
		}
		start, startCPU := time.Now(), processCPU()
		var err error
		if e, err = setupEnv(filepath.Join(runDir, "wal"), genDataset(seed), nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		envSetups = append(envSetups, processCPU()-startCPU)
		for i := 0; w.name == "xsltmark" && i < marksPerSetup; i++ {
			runtime.GC() // no earlier garbage is collected on its time
			if marks, err = setupMarks(caseRows); err != nil {
				e.close()
				return nil, fmt.Errorf("setup: %w", err)
			}
			markSetups = append(markSetups, marks.setupCPU)
			compiles = append(compiles, marks.compileCPU)
		}
		setupWalls = append(setupWalls, time.Since(start))
		recoveries = append(recoveries, e.recovery...)
	}
	defer e.close()
	// xsltmark's setup_s is its own set-up, a third of which is compiling;
	// the shared dept/emp set-up it also needs is gated on the other three
	// workloads.
	setups := envSetups
	if w.name == "xsltmark" {
		setups = markSetups
		if err := marks.references(); err != nil {
			return nil, err
		}
	}
	// peak_rss_mb is the workload's peak, not the set-ups': drop their
	// garbage and restart the high-water mark from the live set.
	debug.FreeOSMemory()
	resetPeakRSS()

	var t tally
	var ph *phases
	var err error
	if w.name == "xsltmark" {
		ph = runMarks(w, marks, e, seed, seconds, nproc, &t)
	} else if ph, err = runHTTP(w, e, seed, seconds, nproc, &t); err != nil {
		return nil, err
	}

	var lat, ttfb, openLat, openTTFB []time.Duration
	for _, s := range ph.closed {
		lat = append(lat, s.latency)
		ttfb = append(ttfb, s.ttfb)
	}
	p99 := quantile(lat, 0.99)
	if w.name == "xsltmark" {
		// The 40 cases' latencies form clusters, so a percentile of all
		// case-runs sits on the edge between two cases and jumps between
		// them from run to run. Percentiles over the cases' own medians
		// stay put.
		lat, ttfb = caseMedians(ph.closed, func(s sample) time.Duration { return s.latency }),
			caseMedians(ph.closed, func(s sample) time.Duration { return s.ttfb })
	}
	for _, s := range ph.open {
		openLat = append(openLat, s.latency)
		openTTFB = append(openTTFB, s.ttfb)
	}
	res := &result{
		Correct: t.mismatches == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(setups).Seconds(), "s"},
			"p50_ms":        {ms(median(lat)), "ms"},
			"ttfb_p50_ms":   {ms(median(ttfb)), "ms"},
			"cpu_ms_per_op": {ms(ph.closedCPU) / float64(ph.closedOps), "ms"},
			"write_p50_ms":  {ms(median(ph.writes)), "ms"},
			"recovery_s":    {median(recoveries).Seconds(), "s"},
			"peak_rss_mb":   {peakRSSMB(), "MB"},
		},
	}
	// Printed with the table but not reported as metrics: error_ratio is 0
	// on a healthy run (the JSON carries it as failed / attempted), and the
	// wall-clock rates, the tail and the open-loop figures move with the
	// host's scheduling noise more than a bound can absorb (see WORKLOADS.md).
	fmt.Printf("error_ratio %.6f ratio (%d failed of %d attempted, %d mismatches)\n",
		float64(t.failed)/float64(max(1, t.attempted)), t.failed, t.attempted, t.mismatches)
	fmt.Printf("throughput_ops_s %.4f ops/s (closed loop, %d connections, %d ops, latency limit %v)\n",
		throughput(ph.closed, w.limit), w.closedConns(nproc), len(ph.closed), w.limit)
	fmt.Printf("p90_ms %.4f ms, p99_ms %.4f ms (closed loop, %d samples)\n", ms(quantile(lat, 0.9)), ms(p99), len(ph.closed))
	fmt.Printf("host steal %.1f%% of the CPUs' time over the closed loop\n", 100*ph.steal)
	fmt.Printf("setup wall time %.4f s, shared dept/emp set-up CPU %.4f s (medians of %d)\n",
		median(setupWalls).Seconds(), median(envSetups).Seconds(), setupReps)
	if w.name == "xsltmark" {
		fmt.Printf("xsltmark set-up CPU %.4f s, of which CompileTransform %.4f s (medians of %d)\n",
			median(markSetups).Seconds(), median(compiles).Seconds(), len(markSetups))
	}
	fmt.Printf("open_p50_ms %.4f ms, open_p99_ms %.4f ms, open_ttfb_p50_ms %.4f ms (open loop at %g ops/s, %d samples)\n",
		ms(median(openLat)), ms(quantile(openLat, 0.99)), ms(median(openTTFB)), w.rate, len(openLat))
	fmt.Printf("gen_lag_p99_ms %.4f ms (%d waits), writes %d\n", ms(quantile(ph.lag, 0.99)), len(ph.lag), len(ph.writes))
	return res, nil
}

// throughput is the closed-loop operations that completed OK within limit,
// per second of the phase.
func throughput(closed []sample, limit time.Duration) float64 {
	if len(closed) == 0 {
		return 0
	}
	first, last := closed[0].end, closed[0].end
	within := 0
	for _, s := range closed {
		if s.end.Before(first) {
			first = s.end
		}
		if s.end.After(last) {
			last = s.end
		}
		if s.ok && s.latency <= limit {
			within++
		}
	}
	return float64(within) / max(last.Sub(first).Seconds(), 1e-9)
}

// envStamp records the facts a reader needs to compare two results.
func envStamp(w workload, seed int64, trace int) map[string]any {
	return map[string]any{
		"workload":          w.name,
		"seed":              seed,
		"trace":             trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"commit":            commit(),
		"offered_rate":      w.rate,
		"closed_conns":      w.closedConns(runtime.NumCPU()),
		"latency_limit_ms":  ms(w.limit),
		"insert_rate":       w.writeRate(),
		"insert_every":      writeEvery,
		"probe_insert_rate": probeRate,
		"wal_policy":        walPolicy.String(),
		"wal_sync_every":    walSyncEvery,
		"depts":             numDepts,
		"emps_per_dept":     empsPerDept,
		"xsltmark_rows":     caseRows,
	}
}

// commit is the VCS revision the binary was built from, or, in a checkout
// without version control, a digest of the Go sources and module files.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err == nil {
			fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
			h.Write(b)
		}
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// resetPeakRSS restarts the process's VmHWM from its current resident set
// (Linux's clear_refs, value 5).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// printTable prints every metric by name with its unit, sorted.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-44s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(w, string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
