package xsltdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlxml"
	"repro/internal/xslt"
)

// collect drains a cursor without closing it implicitly via Collect, so
// tests can interleave assertions.
func collect(t *testing.T, c *Cursor) []string {
	t.Helper()
	var out []string
	for {
		row, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
}

// TestCursorMatchesRunAllStrategies: the streaming cursor must be
// byte-identical to the materializing Run for every strategy.
func TestCursorMatchesRunAllStrategies(t *testing.T) {
	d := newDeptDB(t)
	_ = d.CreateIndex("emp", "deptno")
	for _, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
		ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		wantRes, err := ct.Run(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		want := wantRes.Rows
		cur, err := ct.OpenCursor(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := collect(t, cur)
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: cursor rows = %d, Run rows = %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v row %d:\ncursor: %s\nrun:    %s", s, i, got[i], want[i])
			}
		}
		// Run is the same pipeline drained, so every non-timing stat —
		// strategy, rows, access path, estimate, degradations, breaker and
		// sink counters — agrees too.
		runStats, curStats := wantRes.Stats, cur.Stats()
		runStats.CompileWall, runStats.ExecWall = 0, 0
		curStats.CompileWall, curStats.ExecWall = 0, 0
		if runStats != curStats {
			t.Fatalf("%v: stats differ:\nrun:    %+v\ncursor: %+v", s, runStats, curStats)
		}
	}
}

// TestCursorMatchesRunOuterPath covers the Example 2 combined optimisation
// through the cursor.
func TestCursorMatchesRunOuterPath(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithOuterPath("table", "tr"))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Rows
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cursor %v != run %v", got, want)
	}
}

// TestChainedCursorMatchesRun streams a two-stage pipeline.
func TestChainedCursorMatchesRun(t *testing.T) {
	d := newDeptDB(t)
	stage1 := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<report><xsl:for-each select="employees/emp"><row><xsl:value-of select="sal"/></row></xsl:for-each></report>
		</xsl:template>
	</xsl:stylesheet>`
	stage2 := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="report"><rich n="{count(row[. > 2000])}"/></xsl:template>
	</xsl:stylesheet>`
	arch := d.EnableRunHistory(0)
	ct, err := d.CompileTransform("dept_emp", stage1, WithTraceSampling(SampleAlways()))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ct.Then(stage2)
	if err != nil {
		t.Fatal(err)
	}
	// Both forms finish their telemetry after the chained stages ran: the
	// archived trace carries the stage spans.
	archivedStage := func(kind string) {
		t.Helper()
		rec := arch.Runs(1)[0]
		if rec.Kind != kind || !strings.Contains(rec.Trace, "stage-1") {
			t.Fatalf("%s record %+v lacks the chained stage:\n%s", kind, rec, rec.Trace)
		}
	}
	wantRes, err := chain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	archivedStage("run")
	want := wantRes.Rows
	cur, err := chain.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	archivedStage("cursor")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chained cursor %v != run %v", got, want)
	}
}

// TestCursorEarlyClose: Close before exhaustion abandons the stream; Next
// afterwards reports ErrCursorClosed and Close stays idempotent.
func TestCursorEarlyClose(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Next after Close = %v, want ErrCursorClosed", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	// The abandoned run's counters still reached the aggregate.
	if cur.Stats().RowsProduced != 1 {
		t.Fatalf("rows produced = %d", cur.Stats().RowsProduced)
	}
}

// TestCursorContextCancel: cancellation mid-iteration surfaces
// context.Canceled (sticky).
func TestCursorContextCancel(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := ct.OpenCursor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := cur.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if _, err := cur.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must be sticky, got %v", err)
	}
}

// TestCursorPerRunStats: a cursor reports its own work, and the work lands
// in the database aggregate once finished.
func TestCursorPerRunStats(t *testing.T) {
	d := newDeptDB(t)
	_ = d.CreateIndex("emp", "deptno")
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats().IndexProbes
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	es := cur.Stats()
	if es.RowsProduced != int64(len(rows)) || es.RowsProduced == 0 {
		t.Fatalf("RowsProduced = %d, rows = %d", es.RowsProduced, len(rows))
	}
	if es.IndexProbes == 0 {
		t.Fatal("per-run stats should see the correlated index probes")
	}
	if es.RangeScans == 0 || es.FullScans == 0 {
		t.Fatalf("operator counters missing: %+v", es)
	}
	if d.Stats().IndexProbes != before+es.IndexProbes {
		t.Fatalf("aggregate = %d, want %d + %d", d.Stats().IndexProbes, before, es.IndexProbes)
	}
}

// TestRunWithStatsIsolated: two sequential runs each see only their own
// counters.
func TestRunWithStatsIsolated(t *testing.T) {
	d := newDeptDB(t)
	_ = d.CreateIndex("emp", "deptno")
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := runWithStats(ct)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := runWithStats(ct)
	if err != nil {
		t.Fatal(err)
	}
	if first.IndexProbes != second.IndexProbes || first.RowsProduced != second.RowsProduced {
		t.Fatalf("identical runs should report identical per-run stats: %+v vs %+v", first, second)
	}
	if first.Recompiles != 0 {
		t.Fatalf("no recompiles expected, got %d", first.Recompiles)
	}
}

// TestTypedErrors: the sentinel errors work with errors.Is through every
// public entry point.
func TestTypedErrors(t *testing.T) {
	d := NewDatabase()
	if err := d.Insert("missing", int64(1)); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.CreateIndex("missing", "a"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("CreateIndex: %v", err)
	}
	if err := d.CreateXMLView(&ViewDef{Name: "v", Table: "missing"}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("CreateXMLView missing table: %v", err)
	}
	if _, err := d.CompileTransform("zz", "<x/>"); !errors.Is(err, ErrNoView) {
		t.Fatalf("CompileTransform: %v", err)
	}
	if _, err := d.MaterializeView("zz"); !errors.Is(err, ErrNoView) {
		t.Fatalf("MaterializeView: %v", err)
	}
	if _, err := d.DeriveSchema("zz"); !errors.Is(err, ErrNoView) {
		t.Fatalf("DeriveSchema: %v", err)
	}
	if err := d.ReplaceXMLView(&ViewDef{Name: "zz", Table: "t"}); !errors.Is(err, ErrNoView) {
		t.Fatalf("ReplaceXMLView: %v", err)
	}

	if err := d.CreateTable("t", TableColumn{Name: "v", Type: StringCol}); err != nil {
		t.Fatal(err)
	}
	view := &ViewDef{Name: "mixed", Table: "t", Body: &XMLElement{Name: "p", Children: []XMLExpr{
		&XMLLiteral{Text: "hello "},
		&XMLElement{Name: "b", Children: []XMLExpr{&XMLColumn{Name: "v"}}},
	}}}
	if err := d.CreateXMLView(view); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(view); !errors.Is(err, ErrDuplicateView) {
		t.Fatalf("duplicate view: %v", err)
	}
	// Mixed content cannot reach SQL; forcing it must report the fallback.
	_, err := d.CompileTransform("mixed", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="p"><out/></xsl:template>
	</xsl:stylesheet>`, WithForcedStrategy(StrategySQL))
	if !errors.Is(err, ErrRewriteFellBack) {
		t.Fatalf("forced SQL on mixed view: %v", err)
	}
}

// TestPlanTagOption: WithPlanTag namespaces the plan-cache entry — identical
// compilations share a plan, tagged ones get their own — without changing
// the produced output.
func TestPlanTagOption(t *testing.T) {
	d := newDeptDB(t)
	base, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet,
		WithForcedStrategy(StrategyXQuery), WithOuterPath("table", "tr"))
	if err != nil {
		t.Fatal(err)
	}
	entriesBefore := len(d.PlanCacheEntries())
	same, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet,
		WithForcedStrategy(StrategyXQuery), WithOuterPath("table", "tr"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.PlanCacheEntries()); n != entriesBefore {
		t.Fatalf("identical compile added a cache entry: %d -> %d", entriesBefore, n)
	}
	tagged, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet,
		WithForcedStrategy(StrategyXQuery), WithOuterPath("table", "tr"),
		WithPlanTag("tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.PlanCacheEntries()); n != entriesBefore+1 {
		t.Fatalf("tagged compile must get its own cache entry: %d -> %d", entriesBefore, n)
	}
	if base.Strategy() != tagged.Strategy() {
		t.Fatalf("strategies differ: %v vs %v", base.Strategy(), tagged.Strategy())
	}
	a, err := same.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tagged.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Fatalf("outputs differ: %v vs %v", a.Rows, b.Rows)
	}
}

// TestPlanCacheHit: recompiling the same (view, version, stylesheet,
// options) is served from the cache, observable via the counters; a view
// redefinition misses.
func TestPlanCacheHit(t *testing.T) {
	d := newDeptDB(t)
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Fatalf("after first compile: %+v", s)
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheHits != 1 {
		t.Fatalf("second compile should hit: %+v", s)
	}
	// Different plan options → different entry.
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithOuterPath("table", "tr")); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheMisses != 2 {
		t.Fatalf("outer-path compile should miss: %+v", s)
	}
	// The original options again → still a hit.
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheHits != 2 {
		t.Fatalf("repeated compile should hit: %+v", s)
	}

	// Redefining the view invalidates: next compile is a miss, and the
	// existing transform recompiles against the new version exactly once.
	if err := d.ReplaceXMLView(sqlxmlDeptEmpViewCopy()); err != nil {
		t.Fatal(err)
	}
	missesBefore := d.PlanCacheStats().CacheMisses
	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ct.Recompiles() != 1 {
		t.Fatalf("recompiles = %d", ct.Recompiles())
	}
	if s := d.PlanCacheStats(); s.CacheMisses != missesBefore+1 {
		t.Fatalf("post-replace run should compile fresh: %+v", s)
	}
	// A second transform of the same shape now hits the recompiled entry.
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheMisses != missesBefore+1 {
		t.Fatalf("same-shape compile after recompile should hit: %+v", s)
	}
}

// TestPlanCacheSingleflight: concurrent first compilations of one key
// produce exactly one actual compile.
func TestPlanCacheSingleflight(t *testing.T) {
	d := newDeptDB(t)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := d.PlanCacheStats()
	if s.CacheMisses != 1 {
		t.Fatalf("singleflight should compile once, got %d misses", s.CacheMisses)
	}
	if s.CacheHits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", s.CacheHits, goroutines-1)
	}
}

// TestPlanCacheErrorNotCached: a failed compilation is retried, not served
// from the cache.
func TestPlanCacheErrorNotCached(t *testing.T) {
	d := newDeptDB(t)
	if _, err := d.CompileTransform("dept_emp", "not xml"); err == nil {
		t.Fatal("bad stylesheet should fail")
	}
	if _, err := d.CompileTransform("dept_emp", "not xml"); err == nil {
		t.Fatal("bad stylesheet should fail again")
	}
	if s := d.PlanCacheStats(); s.CacheMisses != 2 || s.Entries != 0 {
		t.Fatalf("errors must not be cached: %+v", s)
	}
}

// sqlxmlDeptEmpViewCopy returns a fresh equivalent of the dept_emp view so
// ReplaceXMLView bumps the version without changing semantics.
func sqlxmlDeptEmpViewCopy() *ViewDef {
	return sqlxml.DeptEmpView()
}

// TestConcurrentRunAndReplace is the -race regression for the old
// `*ct = *fresh` unsynchronized recompilation: many goroutines Run one
// shared transform while the view is redefined underneath them.
func TestConcurrentRunAndReplace(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := ct.Run(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.ReplaceXMLView(sqlxmlDeptEmpViewCopy()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Replaces no longer block behind in-flight runs (readers pin MVCC
	// snapshots), so the concurrent phase above may schedule every run
	// before the first version bump. All four replaces have completed by
	// now, so one more run deterministically observes the final version
	// and must recompile if none of the concurrent runs did.
	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ct.Recompiles() == 0 {
		t.Fatal("at least one automatic recompilation expected")
	}
}

// TestConcurrentParallelExecAndStats is the -race regression for the shared
// Executor.Stats counter: parallel SQL execution from several goroutines
// while another goroutine reads the aggregate.
func TestConcurrentParallelExecAndStats(t *testing.T) {
	d := newDeptDB(t)
	_ = d.CreateIndex("emp", "deptno")
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = d.Stats().IndexProbes // concurrent aggregate reads
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, es, err := runWithStats(ct); err != nil {
					errs <- err
					return
				} else if es.RowsProduced == 0 {
					errs <- errors.New("no rows")
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
