package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	xsltdb "repro"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xq2sql"
	"repro/internal/xslt"
	"repro/internal/xsltmark"
	"repro/serve"
)

// The traced run replays a seeded sample of every workload through the
// layers' public functions, one call at a time, and records a span around
// each call. It never produces an end-to-end number: its timings are of
// single calls on an otherwise idle process.

// span is one timed call. Spans of one operation share op; parent is the
// index of the enclosing span, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op, parent int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, op, parent int, f func()) time.Duration {
	id := r.begin(name, op, parent)
	f()
	return r.end(id)
}

// parentHeader carries a client span's id to the server-side middleware,
// so the handler's span nests under the request that caused it.
const parentHeader = "X-Perfbench-Span"

// middleware records a serve.handler.conn span around every request that
// carries parentHeader.
func (r *recorder) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(parentHeader))
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		r.mu.Lock()
		op := r.spans[parent].Op
		r.mu.Unlock()
		id := r.begin("serve.handler.conn", op, parent)
		h.ServeHTTP(w, req)
		r.end(id)
	})
}

// child returns the duration of the first child of parent named name.
func (r *recorder) child(parent int, name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans[parent+1:] {
		if s.Parent == parent && s.Name == name {
			return time.Duration(s.End - s.Start)
		}
	}
	return 0
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerMetrics collects per-layer metrics under a workload prefix.
type layerMetrics map[string]metric

func (m layerMetrics) set(prefix, name string, v float64, unit string) {
	m[prefix+"."+name] = metric{v, unit}
}

// tracedRun sets up once, replays every workload's sample, and derives the
// per-layer metrics. It covers all four workloads whatever --workload
// names, so that every per-layer metric is defined in every traced run.
func tracedRun(seed int64, seconds float64, runDir string) (*result, error) {
	rec := newRecorder()
	e, err := setupEnv(filepath.Join(runDir, "wal"), genDataset(seed), rec.middleware)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	marks, err := setupMarks(caseRows)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := marks.references(); err != nil {
		return nil, err
	}
	m := layerMetrics{}
	var t tally
	if err := traceMarks(marks, rec, seed, m, &t); err != nil {
		return nil, err
	}
	// mixed goes last: its inserts change the data the others read.
	for _, name := range []string{"lookup", "report", "mixed"} {
		w, _ := workloadByName(name)
		if err := traceHTTP(w, e, rec, seed, seconds, m, &t); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	if err := rec.write(filepath.Join(filepath.Dir(runDir), fmt.Sprintf("spans-seed%d.jsonl", seed))); err != nil {
		return nil, err
	}
	return &result{Correct: t.mismatches == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// Sample sizes of the traced run.
const (
	traceOps      = 300 // lookup and mixed reads in the traced replay
	traceReports  = 24  // report requests in the traced replay
	loadPassShare = 0.1 // of --seconds, for the untraced counter pass of each workload
)

// counters is a snapshot of everything the program already counts.
type counters struct {
	cache                 serve.ResultCacheStats
	shed, coal            uint64
	published, dropped    float64
	allocBytes            uint64
	gcCPU, totalCPU, idle float64
	walAppends, walFsyncs int64
	fsyncHist             obs.HistogramSnapshot
	walBytes              int64
}

func readCounters(e *env) counters {
	var c counters
	c.cache = e.srv.CacheStats()
	for _, ti := range e.srv.TenantsState() {
		c.shed += ti.Shed
		c.coal += ti.Coalesced
	}
	c.published = counterValue("xsltd_events_published_total")
	c.dropped = counterValue("xsltd_events_dropped_total")
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	c.allocBytes = samples[0].Value.Uint64()
	c.gcCPU, c.totalCPU, c.idle = samples[1].Value.Float64(), samples[2].Value.Float64(), samples[3].Value.Float64()
	c.walAppends, c.walFsyncs = xsltdb.WALCounters()
	if h, ok := obs.Default.FindHistogram("xsltdb_wal_fsync_seconds"); ok {
		c.fsyncHist = h.Snapshot()
	}
	c.walBytes = walBytes(e.dir)
	return c
}

func counterValue(name string) float64 {
	var v float64
	for _, s := range obs.Default.SeriesValues(name) {
		v += s.Value
	}
	return v
}

// histQuantile estimates the q-quantile of the observations between two
// snapshots of one histogram, interpolating within the bucket.
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	n := after.Count - before.Count
	if n <= 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	lower := 0.0
	for i, ub := range after.Bounds {
		c := after.Counts[i]
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		if c > 0 && float64(cum+c) >= rank {
			return lower + (ub-lower)*min(1, max(0, (rank-float64(cum))/float64(c)))
		}
		cum += c
		lower = ub
	}
	return lower
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceHTTP measures one HTTP workload in four passes. Pass 1 runs the
// workload's open loop untraced for a short while and reads the program's
// counters around it (cache, coalescing, shedding, events, allocation, GC,
// WAL). Pass 2 replays further operations of the same stream one at a time,
// each through ServeHTTP, the loopback listener, CompileTransform, Run,
// OpenCursor, and below the facade the same plan's access path, executor
// and serializer, with a span around every call. Passes 3 and 4 send pass
// 2's requests over HTTP again, each once untraced and once traced, for the
// tracing overhead.
func traceHTTP(w workload, e *env, rec *recorder, seed int64, seconds float64, m layerMetrics, t *tally) error {
	p := w.name
	nproc := runtime.NumCPU()
	client := newClient(nproc)
	defer client.CloseIdleConnections()
	reads := newReadStream(w.readKind(), streamSeed(seed, "trace-"+p))
	var wr *writer
	if w.writes {
		wr = newWriter(e, streamSeed(seed, "trace-writes"), t)
	}

	// Pass 1: counters under the workload's own arrival pattern.
	before := readCounters(e)
	d := time.Duration(max(loadPassShare*seconds, 1) * float64(time.Second))
	if w.name == "report" {
		d = max(d, time.Duration(float64(traceReports)/w.rate*float64(time.Second)))
	}
	ph := openHTTP(w, e, client, reads, wr, seed, d, nproc, t)
	after := readCounters(e)
	reqs := float64(len(ph.open))
	lookups := float64(after.cache.Hits + after.cache.Misses - before.cache.Hits - before.cache.Misses)
	m.set(p, "serve.cache_hit_ratio", ratio(float64(after.cache.Hits-before.cache.Hits), lookups), "ratio")
	m.set(p, "serve.cache_evictions_per_1k", 1000*ratio(float64(after.cache.Evictions-before.cache.Evictions), reqs), "count")
	m.set(p, "serve.coalesce_ratio", ratio(float64(after.coal-before.coal), reqs), "ratio")
	m.set(p, "serve.shed_ratio", ratio(float64(after.shed-before.shed), reqs), "ratio")
	pub, drop := after.published-before.published, after.dropped-before.dropped
	m.set(p, "obs.events_per_req", ratio(pub, reqs), "count")
	m.set(p, "obs.events_dropped_ratio", ratio(drop, pub+drop), "ratio")
	m.set(p, "runtime.alloc_kb_per_op", ratio(float64(after.allocBytes-before.allocBytes)/1024, reqs), "KB")
	busy := (after.totalCPU - before.totalCPU) - (after.idle - before.idle)
	m.set(p, "runtime.gc_cpu_pct", 100*ratio(after.gcCPU-before.gcCPU, busy), "%")
	m.set(p, "harness.gen_lag_p99_ms", ms(quantile(ph.lag, 0.99)), "ms")
	if w.writes {
		inserts := float64(after.walAppends - before.walAppends)
		m.set(p, "wal.fsyncs_per_1k_inserts", 1000*ratio(float64(after.walFsyncs-before.walFsyncs), inserts), "count")
		m.set(p, "wal.fsync_p99_us", 1e6*histQuantile(before.fsyncHist, after.fsyncHist, 0.99), "us")
		m.set(p, "wal.bytes_per_insert", ratio(float64(after.walBytes-before.walBytes), inserts), "B")
		m.set(p, "wal.replay_records_per_s", ratio(float64(e.db.RecoveryStats().Records), median(e.recovery).Seconds()), "1/s")
	}

	// Pass 2: the traced replay, one operation at a time.
	lp, err := newLowerPlan(e.db)
	if err != nil {
		return err
	}
	n := traceOps
	if w.name == "report" {
		n = traceReports
	}
	var ops []readReq
	var handler, overhead, compile, run, self, firstRow, access, snapshot, construct, serial, inserts []time.Duration
	var respBytes, serialBytes, examined, produced, probes int64
	var serialTime time.Duration
	var pcHits, pcTotal int64
	ctx := context.Background()
	h := e.srv.Handler()
	for op := 0; len(ops) < n; op++ {
		root := rec.begin(p+".op", op, -1)
		if wr != nil && op%writeEvery == writeEvery-1 {
			row := wr.rows.next()
			var err error
			inserts = append(inserts, rec.timed("wal.insert", op, root, func() { err = e.db.Insert("emp", row...) }))
			t.add(err == nil)
			rec.end(root)
			continue
		}
		req := reads.next()
		ops = append(ops, req)

		rr := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodGet, req.path(), nil)
		handler = append(handler, rec.timed("serve.handler", op, root, func() { h.ServeHTTP(rr, hreq) }))
		body := rr.Body.String()

		hs := rec.begin("http.request", op, root)
		got, status, httpErr := getWithSpan(client, e.base+req.path(), hs)
		clientDur := rec.end(hs)
		overhead = append(overhead, clientDur-rec.child(hs, "serve.handler.conn"))
		respBytes += int64(len(got))

		var ct *xsltdb.CompiledTransform
		pc0 := e.db.PlanCacheStats()
		compile = append(compile, rec.timed("facade.compile", op, root, func() {
			ct, err = e.db.CompileTransform(viewName, xslt.PaperStylesheet)
		}))
		pc1 := e.db.PlanCacheStats()
		pcHits += pc1.CacheHits - pc0.CacheHits
		pcTotal += pc1.CacheHits + pc1.CacheMisses - pc0.CacheHits - pc0.CacheMisses
		if err != nil {
			return err
		}
		var res *xsltdb.Result
		runDur := rec.timed("facade.run", op, root, func() { res, err = ct.Run(ctx, req.runOpts()...) })
		if err != nil {
			return err
		}
		run = append(run, runDur)
		examined += res.Stats.RowsScanned + res.Stats.RowsEmitted
		produced += res.Stats.RowsProduced
		probes += res.Stats.IndexProbes
		firstRow = append(firstRow, rec.timed("facade.first_row", op, root, func() {
			var cur *xsltdb.Cursor
			if cur, err = ct.OpenCursor(ctx, req.runOpts()...); err == nil {
				if _, err = cur.Next(); err == io.EOF {
					err = nil
				}
				cur.Close()
			}
		}))
		if err != nil {
			return err
		}

		var snap *relstore.Snapshot
		snapshot = append(snapshot, rec.timed("relstore.snapshot", op, root, func() { snap = e.db.Rel().Snapshot() }))
		acc, exec, docs, err := lp.run(rec, op, root, req, snap)
		if err != nil {
			return err
		}
		access = append(access, acc)
		construct = append(construct, exec-acc)
		var lower strings.Builder
		ser := rec.timed("xmltree.serialize", op, root, func() {
			for _, doc := range docs {
				doc.Serialize(&lower, xmltree.SerializeOptions{OmitDecl: true})
				lower.WriteByte('\n')
			}
		})
		serial = append(serial, ser)
		serialTime += ser
		serialBytes += int64(lower.Len())
		self = append(self, runDur-exec-ser)
		rec.end(root)

		// Every path must have produced the same bytes, and the same bytes
		// as the interpreter.
		ref, err := interpreterOutput(e.db, viewName, xslt.PaperStylesheet, req.runOpts()...)
		if err != nil {
			return err
		}
		ok := httpErr == nil && status == http.StatusOK && rr.Code == http.StatusOK
		t.add(ok)
		if ok && (string(got) != ref || body != ref || joinRows(res.Rows) != ref || lower.String() != ref) {
			t.mismatch()
		}
	}
	m.set(p, "serve.handler_us", us(median(handler)), "us")
	m.set(p, "http.overhead_us", us(median(overhead)), "us")
	m.set(p, "http.resp_kb", float64(respBytes)/1024/float64(len(ops)), "KB")
	m.set(p, "facade.compile_hit_us", us(median(compile)), "us")
	m.set(p, "facade.plancache_hit_ratio", ratio(float64(pcHits), float64(pcTotal)), "ratio")
	m.set(p, "facade.run_us", us(median(run)), "us")
	m.set(p, "facade.self_us", us(median(self)), "us")
	m.set(p, "facade.first_row_us", us(median(firstRow)), "us")
	m.set(p, "relstore.access_us", us(median(access)), "us")
	m.set(p, "relstore.rows_examined_per_row", ratio(float64(examined), float64(produced)), "count")
	m.set(p, "relstore.index_probes_per_req", ratio(float64(probes), float64(len(ops))), "count")
	m.set(p, "relstore.snapshot_us", us(median(snapshot)), "us")
	m.set(p, "sqlxml.construct_us", us(median(construct)), "us")
	m.set(p, "xmltree.serialize_us", us(median(serial)), "us")
	m.set(p, "xmltree.serialize_mb_s", ratio(float64(serialBytes)/1e6, serialTime.Seconds()), "MB/s")
	if w.writes {
		m.set(p, "wal.insert_us", us(median(inserts)), "us")
	}

	// Passes 3 and 4: pass 2's requests again, each sent once untraced and
	// once traced, alternating which goes first, so both see the same cache
	// state.
	var plain, traced []time.Duration
	for op, req := range ops {
		for k := 0; k < 2; k++ {
			hs := -1
			if (op+k)%2 == 1 {
				hs = rec.begin(p+".overhead.request", op, -1)
			}
			start := time.Now()
			if _, _, err := getWithSpan(client, e.base+req.path(), hs); err != nil {
				return err
			}
			if hs < 0 {
				plain = append(plain, time.Since(start))
			} else {
				traced = append(traced, rec.end(hs))
			}
		}
	}
	m.set(p, "trace.overhead_pct", 100*ratio(float64(median(traced)-median(plain)), float64(median(plain))), "%")
	return nil
}

// getWithSpan sends a GET carrying span id parent (none when negative) and
// returns the body.
func getWithSpan(c *http.Client, url string, parent int) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	if parent >= 0 {
		req.Header.Set(parentHeader, strconv.Itoa(parent))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// lowerPlan is the paper transform's SQL/XML plan, compiled by the same
// public pipeline stages the facade runs (parse, schema derivation,
// XSLT→XQuery rewrite, XQuery→SQL/XML lowering), so the layers below the
// facade can be timed one at a time for a request.
type lowerPlan struct {
	exec *sqlxml.Executor
	view *sqlxml.ViewDef
	plan *sqlxml.Query
}

func newLowerPlan(db *xsltdb.Database) (*lowerPlan, error) {
	exec := sqlxml.NewExecutor(db.Rel())
	view := db.View(viewName)
	schema, err := exec.DeriveSchema(view)
	if err != nil {
		return nil, err
	}
	sheet, err := xslt.ParseStylesheet(xslt.PaperStylesheet)
	if err != nil {
		return nil, err
	}
	rw, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		return nil, err
	}
	plan, err := xq2sql.Translate(rw.Module, view)
	if err != nil {
		return nil, err
	}
	return &lowerPlan{exec: exec, view: view, plan: plan}, nil
}

// run times the request's driving access path alone and then the whole
// executor (access plus construction) on snap, and returns both durations
// and the constructed documents.
func (lp *lowerPlan) run(rec *recorder, op, parent int, req readReq, snap *relstore.Snapshot) (access, exec time.Duration, docs []*xmltree.Node, err error) {
	extras, err := xq2sql.ExtractWhere(lp.view, req.where)
	if err != nil {
		return 0, 0, nil, err
	}
	params := map[string]relstore.Value{}
	for _, p := range req.params {
		params[p.name] = p.val
	}
	access = rec.timed("relstore.access", op, parent, func() {
		var preds []relstore.Pred
		if preds, err = relstore.BindPreds(append(append([]relstore.Pred{}, lp.plan.Where...), extras...), params); err != nil {
			return
		}
		ts := snap.Table(lp.view.Table)
		it := relstore.PlanAccessAt(ts, preds).OpenBatchAt(ts, nil, nil, relstore.BatchOpts{})
		b := relstore.GetBatch(relstore.DefaultBatchSize)
		for {
			if _, ok := it.NextBatch(b); !ok {
				break
			}
		}
		relstore.PutBatch(b)
		err = it.Err()
	})
	if err != nil {
		return 0, 0, nil, err
	}
	spec := &sqlxml.RunSpec{Extra: extras, Params: params, Snap: snap}
	var sink relstore.Stats
	exec = rec.timed("sqlxml.execute", op, parent, func() {
		docs, err = lp.exec.ExecQueryParallelSpec(lp.plan, 1, &sink, governor.New(context.Background()), spec)
	})
	return access, exec, docs, err
}

// Paper figures the traced xsltmark pass reports speedups for: Figure 2's
// dbonerow at 2k–16k rows, and Figure 3's four cases.
var (
	fig2Sizes = []int{2000, 4000, 8000, 16000}
	fig3Cases = []string{"avts", "chart", "metric", "total"}
)

const (
	fig3Rows  = 4000
	caseReps  = 3
	speedReps = 3
)

// traceMarks measures xsltmark: cold compilation, every case's run time
// grouped by the strategy that ran it, the paper figures' speedups over
// the forced no-rewrite strategy, and the generator's lateness.
func traceMarks(suite *markSuite, rec *recorder, seed int64, m layerMetrics, t *tally) error {
	const p = "xsltmark"
	// Cold compiles: a plan tag no run has used makes the plan cache miss.
	var cold []time.Duration
	op := 0
	for i, mc := range suite.cases {
		if mc.ct == nil {
			continue
		}
		c := xsltmark.ByName(mc.name)
		var err error
		cold = append(cold, rec.timed("facade.compile_cold", op, -1, func() {
			_, err = mc.db.CompileTransform(c.Rel.View().Name, c.Stylesheet, xsltdb.WithPlanTag(fmt.Sprintf("cold-%d-%d", seed, i)))
		}))
		if err != nil {
			return err
		}
		op++
	}
	m.set(p, "facade.compile_cold_ms", ms(median(cold)), "ms")

	// Per-case medians, untraced then traced, grouped by strategy.
	byStrategy := map[string][]time.Duration{}
	var plain, traced []time.Duration
	for _, mc := range suite.cases {
		var pd, td []time.Duration
		var strategy xsltdb.Strategy
		for rep := 0; rep < caseReps; rep++ {
			var rs []caseResult
			for k := 0; k < 2; k++ {
				if (rep+k)%2 == 0 {
					start := time.Now()
					rs = append(rs, mc.run(false))
					pd = append(pd, time.Since(start))
					continue
				}
				root := rec.begin(p+".case."+mc.name, op, -1)
				rs = append(rs, mc.run(false))
				td = append(td, rec.end(root))
				op++
			}
			r2 := rs[1]
			for _, r := range rs {
				t.add(r.err == nil)
				if r.err == nil && r.out != mc.ref {
					t.mismatch()
				}
			}
			strategy = r2.strategy
		}
		group := map[xsltdb.Strategy]string{xsltdb.StrategySQL: "sql", xsltdb.StrategyXQuery: "xquery"}[strategy]
		if group == "" {
			group = "xslt"
		}
		byStrategy[group] = append(byStrategy[group], median(td))
		plain = append(plain, median(pd))
		traced = append(traced, median(td))
	}
	for _, g := range []string{"sql", "xquery", "xslt"} {
		m.set(p, g+".case_us", us(median(byStrategy[g])), "us")
	}
	m.set(p, "trace.overhead_pct", 100*ratio(float64(sum(traced)-sum(plain)), float64(sum(plain))), "%")

	// Paper figures: rewrite against forced no-rewrite on the same rows.
	speedup := func(name string, n int, label string) error {
		c := xsltmark.ByName(name)
		db, err := caseDB(c, n)
		if err != nil {
			return err
		}
		view := c.Rel.View().Name
		fast, err := db.CompileTransform(view, c.Stylesheet)
		if err != nil {
			return err
		}
		slow, err := db.CompileTransform(view, c.Stylesheet, xsltdb.WithForcedStrategy(xsltdb.StrategyNoRewrite))
		if err != nil {
			return err
		}
		var fd, sd []time.Duration
		var outs [2]string
		for rep := 0; rep < speedReps; rep++ {
			for i, ct := range []*xsltdb.CompiledTransform{fast, slow} {
				root := rec.begin(p+".speedup."+label, op, -1)
				res, err := ct.Run(context.Background())
				d := rec.end(root)
				t.add(err == nil)
				if err != nil {
					return err
				}
				outs[i] = joinRows(res.Rows)
				if i == 0 {
					fd = append(fd, d)
				} else {
					sd = append(sd, d)
				}
			}
			op++
			if outs[0] != outs[1] {
				t.mismatch()
			}
		}
		m.set(p, "speedup."+label, ratio(float64(median(sd)), float64(median(fd))), "x")
		return nil
	}
	for _, n := range fig2Sizes {
		if err := speedup("dbonerow", n, fmt.Sprintf("dbonerow_%dk", n/1000)); err != nil {
			return err
		}
	}
	for _, name := range fig3Cases {
		if err := speedup(name, fig3Rows, name); err != nil {
			return err
		}
	}

	// The generator's lateness on the workload's own open loop.
	w, _ := workloadByName(p)
	order := rand.New(rand.NewSource(streamSeed(seed, "trace-cases"))).Perm(len(suite.cases))
	n := int(w.rate)
	_, lag := openLoop(n, w.rate, runtime.NumCPU(), func(slot int, due time.Time) sample {
		mc := suite.cases[order[slot%len(order)]]
		res := mc.run(true)
		t.add(res.err == nil)
		if res.err == nil && res.out != mc.ref {
			t.mismatch()
		}
		return sample{slot: slot}
	})
	m.set(p, "harness.gen_lag_p99_ms", ms(quantile(lag, 0.99)), "ms")
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
