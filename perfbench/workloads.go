package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/relstore"
	"repro/internal/xslt"
)

// workload is one named traffic mix. WORKLOADS.md records why each exists
// and where its rates come from.
type workload struct {
	name string
	// rate is the open-loop phase's offered read rate in operations per
	// second.
	rate float64
	// limit is the latency an operation must meet to count toward the
	// closed-loop throughput.
	limit time.Duration
	// writes selects mixed's inserts: one operation in every writeEvery is
	// a durable insert, in both phases.
	writes bool
	// sampleEvery selects the correctness sample: one request in every
	// sampleEvery is kept and compared with the interpreter's output.
	sampleEvery int
	// conns is the closed loop's connection count; 0 means nproc.
	conns int
}

// The open-loop rates follow one rule: a quarter of the workload's
// closed-loop throughput, measured on the 2-vCPU reference host at the
// commit this benchmark was written against (lookup 9,700/s, report about
// 50/s on one connection, xsltmark 590 case-runs/s), to two significant
// figures.
// A quarter keeps the server below half load even when the host's steal
// halves its capacity, which it did for minutes at a time there. The rates
// are constants, so a later commit is offered the same load (WORKLOADS.md).
var workloads = []workload{
	{name: "lookup", rate: lookupRate, limit: 25 * time.Millisecond, sampleEvery: 50},
	// report's closed loop uses one connection: at two, each 20 ms request
	// also waits for the other's CPU time and the GC, so whatever vCPU time
	// the host takes lands on it (WORKLOADS.md).
	{name: "report", rate: 12, limit: 500 * time.Millisecond, sampleEvery: 4, conns: 1},
	{name: "mixed", rate: lookupRate, limit: 25 * time.Millisecond, writes: true},
	{name: "xsltmark", rate: 150, limit: 250 * time.Millisecond},
}

// lookupRate is lookup's and mixed's offered read rate.
const lookupRate = 2400

// writeEvery is mixed's operation mix: YCSB workload D's 95% reads and 5%
// inserts, so one operation in 20 is an insert. The ratio, not a rate,
// fixes the mix, so a faster or slower read path does not change it.
const writeEvery = 20

// closedConns is the closed loop's connection count on nproc CPUs.
func (w workload) closedConns(nproc int) int {
	if w.conns > 0 {
		return w.conns
	}
	return nproc
}

// writeRate is the insert rate of mixed's open loop, whose reads arrive at
// w.rate; 0 for the read-only workloads.
func (w workload) writeRate() float64 {
	if !w.writes {
		return 0
	}
	return w.rate / (writeEvery - 1)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// readKind is the request distribution a workload's reads follow: mixed
// reads like lookup.
func (w workload) readKind() string {
	if w.name == "report" {
		return "report"
	}
	return "lookup"
}

// The write probe: the read-only workloads end with a short open-loop burst
// of durable inserts at mixed's insert rate, so write latency is measured
// on every workload under the same arrival rate; it runs after the reads
// and cannot disturb them.
const probeRate = lookupRate / (writeEvery - 1.0)

// mixedSample is the number of requests mixed checks for correctness before
// its writes start.
const mixedSample = 40

// tally counts a run's operations.
type tally struct {
	mu         sync.Mutex
	attempted  int
	failed     int // non-2xx, transport errors, timeouts, mismatches
	mismatches int
}

func (t *tally) add(ok bool) {
	t.mu.Lock()
	t.attempted++
	if !ok {
		t.failed++
	}
	t.mu.Unlock()
}

func (t *tally) mismatch() {
	t.mu.Lock()
	t.failed++
	t.mismatches++
	t.mu.Unlock()
}

// phases is what one timed run measured, before it becomes metrics.
type phases struct {
	open      []sample // open-loop phase, timed from due
	lag       []time.Duration
	closed    []sample        // closed-loop reads, timed from send
	closedOps int             // closed-loop operations, mixed's inserts included
	closedCPU time.Duration   // process CPU time over the closed-loop phase
	steal     float64         // the hypervisor's share of the CPUs' time over the closed loop
	writes    []time.Duration // Database.Insert call latencies
	kept      []keptBody
}

// Shares of --seconds: the open-loop phase, the closed-loop phase and the
// write probe (read-only workloads only).
const (
	openShare   = 0.3
	closedShare = 0.6
)

// runHTTP drives lookup, report or mixed against the server in e: an
// open-loop phase at w.rate, then a closed-loop phase of nproc connections,
// both checked by the correctness sample.
func runHTTP(w workload, e *env, seed int64, seconds float64, nproc int, t *tally) (*phases, error) {
	client := newClient(nproc)
	defer client.CloseIdleConnections()
	reads := newReadStream(w.readKind(), streamSeed(seed, "reads"))
	scale := 1.0
	if w.writes {
		scale = 1 / (openShare + closedShare) // no write probe: the phases get its share
	}
	openDur := time.Duration(openShare * scale * seconds * float64(time.Second))
	closedDur := time.Duration(closedShare * scale * seconds * float64(time.Second))

	var wr *writer
	var kept []keptBody
	if w.writes {
		// The sample is taken before the writes start, so the interpreter
		// sees the same data the responses were computed from.
		sample := newReadStream(w.readKind(), streamSeed(seed, "sample"))
		for i := 0; i < mixedSample; i++ {
			req := sample.next()
			r := timedGet(client, e.base+req.path(), true)
			ok := r.err == nil && r.status == http.StatusOK
			t.add(ok)
			if ok {
				kept = append(kept, keptBody{req, r.body})
			}
		}
		if err := checkKept(e, kept, t); err != nil {
			return nil, err
		}
		wr = newWriter(e, streamSeed(seed, "writes"), t)
	}
	ph := openHTTP(w, e, client, reads, wr, seed, openDur, nproc, t)

	var streamMu sync.Mutex
	cpu0, host0 := processCPU(), readHostCPU()
	closed := closedLoop(closedDur, w.closedConns(nproc), func(slot int, sent time.Time) sample {
		if wr != nil && slot%writeEvery == writeEvery-1 {
			streamMu.Lock()
			row := wr.rows.next()
			streamMu.Unlock()
			wr.insert(row)
			return sample{slot: -1}
		}
		streamMu.Lock()
		req := reads.next()
		streamMu.Unlock()
		r := timedGet(client, e.base+req.path(), false)
		ok := r.err == nil && r.status == http.StatusOK
		t.add(ok)
		return sample{slot: slot, latency: r.done.Sub(sent), ttfb: r.firstByte.Sub(sent), ok: ok, end: r.done}
	})
	ph.closedCPU, ph.steal = processCPU()-cpu0, host0.stealSince()
	ph.closedOps = len(closed)
	for _, s := range closed {
		if s.slot >= 0 {
			ph.closed = append(ph.closed, s)
		}
	}

	// Check the kept responses against the interpreter before anything
	// writes: the data is still what they were computed from.
	if err := checkKept(e, ph.kept, t); err != nil {
		return nil, err
	}
	if wr != nil {
		ph.writes = wr.lat
	} else {
		ph.writes = writeProbe(e, seed, seconds, t)
	}
	return ph, nil
}

// keptBody is a response of the correctness sample.
type keptBody struct {
	req  readReq
	body []byte
}

// checkKept compares each kept response with the interpreter's output over
// the database's current data and counts every difference as a mismatch.
func checkKept(e *env, kept []keptBody, t *tally) error {
	for _, k := range kept {
		ref, err := interpreterOutput(e.db, viewName, xslt.PaperStylesheet, k.req.runOpts()...)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", k.req, err)
		}
		if !bytes.Equal(k.body, []byte(ref)) {
			t.mismatch()
		}
	}
	return nil
}

// openHTTP runs the open-loop phase of an HTTP workload for d: reads at
// w.rate from reads and, for mixed, wr's inserts as one slot in every
// writeEvery of the same schedule. Read-only workloads keep the sampled
// responses for checking.
func openHTTP(w workload, e *env, client *http.Client, reads *readStream, wr *writer, seed int64, d time.Duration, nproc int, t *tally) *phases {
	rate := w.rate + w.writeRate()
	n := int(rate * d.Seconds())
	reqs := make([]readReq, n)
	writes := make([][]relstore.Value, n) // non-nil at mixed's insert slots
	for i := range reqs {
		if wr != nil && i%writeEvery == writeEvery-1 {
			writes[i] = wr.rows.next()
			continue
		}
		reqs[i] = reads.next()
	}
	ph := &phases{}
	var mu sync.Mutex
	open, lag := openLoop(n, rate, nproc, func(slot int, due time.Time) sample {
		if writes[slot] != nil {
			wr.insert(writes[slot])
			return sample{slot: -1}
		}
		keep := !w.writes && sampled(seed, slot, w.sampleEvery)
		r := timedGet(client, e.base+reqs[slot].path(), keep)
		ok := r.err == nil && r.status == http.StatusOK
		t.add(ok)
		if keep && ok {
			mu.Lock()
			ph.kept = append(ph.kept, keptBody{reqs[slot], r.body})
			mu.Unlock()
		}
		return sample{slot: slot, latency: r.done.Sub(due), ttfb: r.firstByte.Sub(due), ok: ok}
	})
	for _, s := range open {
		if s.slot >= 0 {
			ph.open = append(ph.open, s)
		}
	}
	ph.lag = lag
	return ph
}

// sampled reports whether slot belongs to the seeded correctness sample.
func sampled(seed int64, slot, every int) bool {
	if every <= 0 {
		return false
	}
	h := uint64(slot)*0x9E3779B97F4A7C15 ^ uint64(seed)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h%uint64(every) == 0
}

// writer issues mixed's inserts from a seeded row stream and records each
// Insert call's latency.
type writer struct {
	e    *env
	t    *tally
	rows *writeStream
	mu   sync.Mutex
	lat  []time.Duration
}

func newWriter(e *env, seed int64, t *tally) *writer {
	return &writer{e: e, rows: newWriteStream(seed), t: t}
}

// insert writes row and records the call's latency.
func (wr *writer) insert(row []relstore.Value) {
	start := time.Now()
	err := wr.e.db.Insert("emp", row...)
	d := time.Since(start)
	wr.t.add(err == nil)
	wr.mu.Lock()
	wr.lat = append(wr.lat, d)
	wr.mu.Unlock()
}

// writeProbe inserts at probeRate for the rest of the run, one worker, and
// returns each Insert call's latency.
func writeProbe(e *env, seed int64, seconds float64, t *tally) []time.Duration {
	rows := newWriteStream(streamSeed(seed, "probe"))
	n := int(probeRate * (1 - openShare - closedShare) * seconds)
	batch := make([][]relstore.Value, n)
	for i := range batch {
		batch[i] = rows.next()
	}
	lat := make([]time.Duration, n)
	openLoop(n, probeRate, 1, func(slot int, due time.Time) sample {
		start := time.Now()
		err := e.db.Insert("emp", batch[slot]...)
		lat[slot] = time.Since(start)
		t.add(err == nil)
		return sample{slot: slot, ok: err == nil}
	})
	return lat
}

// runMarks drives xsltmark with case-runs chosen by the seed: an open-loop
// phase that materializes database-backed cases through Run, then a closed
// loop that streams them through OpenCursor, so the first row's arrival is
// observable. Standalone cases go through xsltdb.Transform in both. Every
// output is compared with the case's reference.
func runMarks(w workload, m *markSuite, e *env, seed int64, seconds float64, nproc int, t *tally) *phases {
	// The seed orders the cases; both phases cycle through that order, so
	// every case runs equally often and the mix does not vary by seed.
	order := rand.New(rand.NewSource(streamSeed(seed, "cases"))).Perm(len(m.cases))
	openDur := time.Duration(openShare * seconds * float64(time.Second))
	closedDur := time.Duration(closedShare * seconds * float64(time.Second))
	n := int(w.rate * openDur.Seconds())
	check := func(mc *markCase, res caseResult) bool {
		ok := res.err == nil
		t.add(ok)
		if ok && res.out != mc.ref {
			t.mismatch()
			return false
		}
		return ok
	}
	ph := &phases{}
	ph.open, ph.lag = openLoop(n, w.rate, nproc, func(slot int, due time.Time) sample {
		mc := m.cases[order[slot%len(order)]]
		res := mc.run(false)
		ok := check(mc, res)
		return sample{slot: slot, latency: time.Since(due), ttfb: res.firstRow.Sub(due), ok: ok}
	})
	cpu0, host0 := processCPU(), readHostCPU()
	ph.closed = closedLoop(closedDur, nproc, func(slot int, sent time.Time) sample {
		c := order[slot%len(order)]
		res := m.cases[c].run(true)
		ok := check(m.cases[c], res)
		end := time.Now()
		return sample{slot: slot, kase: c, latency: end.Sub(sent), ttfb: res.firstRow.Sub(sent), ok: ok, end: end}
	})
	ph.closedCPU, ph.steal = processCPU()-cpu0, host0.stealSince()
	ph.closedOps = len(ph.closed)
	ph.writes = writeProbe(e, seed, seconds, t)
	return ph
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the first line of /proc/stat: the CPUs' time so far, in
// ticks, and the part of it the hypervisor gave to other guests (steal).
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostCPU
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is in user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealSince is the steal share of the CPUs' time since h.
func (h hostCPU) stealSince() float64 {
	now := readHostCPU()
	if now.total <= h.total {
		return 0
	}
	return float64(now.steal-h.steal) / float64(now.total-h.total)
}

// caseMedians returns, for each xsltmark case, the median of f over that
// case's closed-loop runs.
func caseMedians(closed []sample, f func(sample) time.Duration) []time.Duration {
	byCase := map[int][]time.Duration{}
	for _, s := range closed {
		byCase[s.kase] = append(byCase[s.kase], f(s))
	}
	out := make([]time.Duration, 0, len(byCase))
	for _, ds := range byCase {
		out = append(out, median(ds))
	}
	return out
}
