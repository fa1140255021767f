package xsltdb

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xquery"
	"repro/internal/xslt"
)

// Cursor streams a transformation one driving row at a time (the paper's §6
// iterator-based pull evaluation): nothing is materialized up front — each
// Next pulls one row through the relstore access path, constructs its XML,
// and applies the strategy's evaluation. It is the engine's one executor:
// Run is a cursor drained into a Result.
//
// The protocol is Next until io.EOF, then Close. Next returns ErrCanceled
// (also matching the underlying context error) if the cursor's context is
// cancelled or its WithTimeout expires mid-iteration, ErrLimitExceeded when
// a WithMaxRows/WithMaxOutputBytes budget is exhausted, and ErrCursorClosed
// after Close. Any terminal error is sticky.
//
// A cursor is not safe for concurrent Next calls — open one cursor per
// goroutine instead (their stats never share a counter) — but Close may
// race an in-flight Next from another goroutine: Close cancels the run so
// the Next aborts promptly, and the underlying iterators and stats are
// released exactly once no matter how the race lands.
type Cursor struct {
	ctx    context.Context
	cancel context.CancelFunc
	db     *Database

	// The degradation chain: st is the compiled plan, chain its strategies
	// strongest first, next the index of the first one not yet tried. hold
	// marks a Run drain — rows reach the caller only when the drain ends, so
	// a failure at any row may still degrade.
	st    *planState
	opts  compileOptions
	chain []Strategy
	next  int
	hold  bool

	// stages are a ChainedTransform's later stylesheets, applied to every
	// first-stage row under their own pipeline governor (see step).
	stages []chainStage

	// pull yields the current attempt's next governed row, io.EOF at end.
	// Next captures it under mu and runs it outside the lock, so a racing
	// Close is never blocked behind a slow row.
	pull func() (string, error)

	// Per-attempt state, swapped under mu by advance: gov is the attempt's
	// fresh governor (govTicks sums the finished attempts'), chainGov the
	// pipeline governor of the chained stages, attempt the strategy span,
	// and finish records the attempt's closing operator attributes.
	strategy Strategy
	gov      *governor.G
	govTicks int64
	chainGov *governor.G
	attempt  *obs.Span
	finish   func()
	panics   atomic.Int64 // recovered panics (pulls run outside mu)

	// spec carries the run options down to the executor; access is its
	// access-path out-parameter, copied with the estimate into accessPath
	// and estRows when an attempt opens.
	spec       *sqlxml.RunSpec
	access     *string
	accessPath string
	estRows    int64

	// Observability: trace is the run's trace (the caller's WithTrace, or
	// the cursor's own when sampling or a slow threshold demanded one), root
	// the execution-lifetime span ("run" or "cursor", also the archive Kind)
	// and chainSp/stageSps the chained stages' spans.
	trace    *obs.Trace
	ownTrace bool
	kind     string
	root     *obs.Span
	chainSp  *obs.Span
	stageSps []*obs.Span
	viewName string

	// Archive bookkeeping: opened is the execution's start (RunRecord
	// start), sampled the trace-sampling decision made at open and seq the
	// sampling sequence number it drew, pinID the snapshot-pin handle held
	// until release.
	opened  time.Time
	sampled bool
	seq     uint64
	pinID   uint64

	mu           sync.Mutex
	sink         relstore.Stats
	rowsProduced int64
	held         []string // a Run drain's rows (hold mode only)
	recompiles   int64
	compileWall  time.Duration
	execWall     time.Duration
	degradations int64
	breakerSkips int64
	breakerTrips int64
	err          error // sticky terminal condition (io.EOF, governance, eval error)
	closed       bool

	releaseOnce sync.Once
}

// OpenCursor begins a streaming execution of the transform. A transform
// whose view was redefined since compilation recompiles automatically first
// (§7.3). The SQL strategy streams straight off the plan's access path;
// XQuery and no-rewrite materialize ONE view row per Next.
//
// RunOptions parameterize the stream exactly as they do Run: WithParam
// binds variables, WithWhere adds driving predicates (pushed down to the
// access path), WithoutPushdown forces the full-scan baseline.
//
// Strategies whose circuit breaker is open are skipped, and a strategy that
// fails (or panics) before the cursor has handed out its first row degrades
// to the next one in the chain. Later failures terminate the cursor — a
// half-delivered stream cannot be transparently restarted on a weaker
// strategy without re-emitting rows.
func (ct *CompiledTransform) OpenCursor(ctx context.Context, opts ...RunOption) (*Cursor, error) {
	c, err := ct.open(ctx, buildRunOptions(opts), nil, false)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// OpenCursor streams the whole pipeline: each driving row is pulled through
// the first stage and then through every chained stage before the next row
// is touched. RunOptions apply to the first (view-backed) stage. The chained
// stages honor the first stage's full governance options — a separate
// governor charges the pipeline's FINAL rows against MaxRows and
// MaxOutputBytes, since a chained stage can expand its input past what the
// first stage's own accounting saw.
func (c *ChainedTransform) OpenCursor(ctx context.Context, opts ...RunOption) (*Cursor, error) {
	cur, err := c.first.open(ctx, buildRunOptions(opts), c.stages, false)
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// run is Run for a transform followed by stages: it opens the pipeline in
// hold mode and drains it. With the run-history console enabled, the drain
// carries strategy/view profile labels so /debug/pprof/profile breaks CPU
// down by both — once per run, never per row, which would dominate the
// per-row cost.
func (ct *CompiledTransform) run(ctx context.Context, ro runOptions, stages []chainStage) (*Result, error) {
	c, err := ct.open(ctx, ro, stages, true)
	if c == nil {
		return nil, err
	}
	if err == nil {
		if ct.db.history.Load() != nil {
			labels := pprof.Labels("strategy", c.strategy.String(), "view", ct.viewName)
			pprof.Do(c.ctx, labels, func(context.Context) { err = c.drain() })
		} else {
			err = c.drain()
		}
	}
	res := &Result{Stats: c.Stats()}
	if err == nil {
		res.Rows = c.held
	}
	return res, err
}

// drain pulls every row; in hold mode Next collects them into c.held.
func (c *Cursor) drain() error {
	for {
		if _, err := c.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// open starts one execution: recompile if the view changed, resolve the run
// options, register with the database, and open the first strategy of the
// chain that works. hold selects Run's drain mode (root span and archive
// kind "run") over a streaming cursor ("cursor").
//
// A failure before any strategy was attempted returns a nil cursor. Once
// strategies were attempted the cursor is returned even on failure —
// already released, with its telemetry recorded — so Run can report the
// failed work's Stats.
func (ct *CompiledTransform) open(ctx context.Context, ro runOptions, stages []chainStage, hold bool) (*Cursor, error) {
	if err := ct.db.checkOpen(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	kind := "cursor"
	if hold {
		kind = "run"
	}
	// A run the trace-sampling policy may keep in the run-history archive
	// traces itself when the caller did not. The zero policy never samples,
	// so it draws no sequence number from the archive's shared counter.
	hist := ct.db.history.Load()
	var seq uint64
	sampled := false
	if hist != nil && ct.opts.Sampling != (TraceSampling{}) {
		seq = hist.SampleTick()
		sampled = ct.opts.Sampling.WantTrace(seq)
	}
	tr := ro.trace
	ownTrace := false
	if tr == nil && sampled {
		tr = obs.New()
		ownTrace = true
	}
	abort := func(root *obs.Span, err error) (*Cursor, error) {
		root.Fail(err)
		root.End()
		if ownTrace {
			tr.Release()
		}
		return nil, err
	}

	start := time.Now()
	root := tr.Start(kind)
	if root != nil {
		root.SetAttr("view", ct.viewName)
	}
	compileSp := root.Start("compile")
	st, recompiled, err := ct.ensureFresh(compileSp)
	compileSp.End()
	if err != nil {
		return abort(root, err)
	}
	spec, access, err := ct.db.runSpec(st, ro, false)
	if err != nil {
		return abort(root, err)
	}

	var cancel context.CancelFunc
	if ct.opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, ct.opts.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	c := &Cursor{
		ctx: ctx, cancel: cancel, db: ct.db,
		st: st, opts: ct.opts, chain: st.chain(ct.opts), hold: hold, stages: stages,
		spec: spec, access: access,
		recompiles: int64(recompiled), compileWall: time.Since(start),
		trace: tr, ownTrace: ownTrace, kind: kind, root: root, viewName: ct.viewName,
		opened: start, sampled: sampled, seq: seq,
	}
	c.stageSps, c.chainSp = stageSpans(tr, stages)
	if !ct.db.registerCursor(c) {
		// Close raced the open: refuse instead of leaving an untracked
		// execution running over a closed database.
		cancel()
		c.chainSp.End()
		return abort(root, ErrDatabaseClosed)
	}
	mActiveCursors.Inc()
	c.pinID = snapPins.pin()

	openStart := time.Now()
	pull, err := c.advance(nil)
	c.mu.Lock()
	c.execWall += time.Since(openStart)
	if err != nil && c.err == nil {
		c.err = err
	}
	err = c.err // ErrDatabaseClosed when Close landed during the open
	c.pull = pull
	c.mu.Unlock()
	if err != nil {
		c.release()
		return c, err
	}
	return c, nil
}

// advance opens the next usable strategy of the chain — the executor's one
// loop over it. cause is the failure that ended the previous attempt (nil at
// open). A strategy whose circuit breaker is open is skipped (never the
// last: something must always run); each attempt runs under a fresh
// governor, so budgets never double-charge across attempts, and an attempt
// that fails to open falls through like one that fails mid-pull. It returns
// the new attempt's pull, or the error that ends the execution: a
// governance verdict, or the last strategy's failure.
func (c *Cursor) advance(cause error) (func() (string, error), error) {
	for c.next < len(c.chain) {
		s := c.chain[c.next]
		c.next++
		last := c.next == len(c.chain)
		if !last && !c.st.brk.allow(s) {
			c.mu.Lock()
			c.breakerSkips++
			c.mu.Unlock()
			if c.root != nil {
				sk := c.root.Start(s.String())
				sk.SetAttr("breaker", "open")
				sk.SetAttr("skipped", "true")
				sk.End()
			}
			continue
		}
		g := governor.New(c.ctx).Limits(c.opts.MaxRows, c.opts.MaxOutputBytes, c.opts.MaxRecursionDepth)
		attempt := c.root.Start(s.String())
		if attempt != nil {
			if bs := c.st.brk.state(s); bs != "closed" {
				attempt.SetAttr("breaker", bs)
			}
		}
		c.mu.Lock()
		c.govTicks += int64(c.gov.Ticks())
		c.strategy, c.gov, c.attempt, c.finish = s, g, attempt, nil
		if len(c.stages) > 0 {
			c.chainGov = governor.New(c.ctx).Limits(c.opts.MaxRows, c.opts.MaxOutputBytes, c.opts.MaxRecursionDepth)
		}
		if c.hold {
			// The failed attempt's rows never reached the caller: drop them.
			c.rowsProduced, c.held = 0, nil
		}
		c.mu.Unlock()

		c.spec.Span = attempt
		pull, finish, err := c.openStrategy(s, g)
		if err == nil {
			c.mu.Lock()
			c.finish = finish
			c.accessPath, c.estRows = *c.access, specEstRows(c.spec)
			c.mu.Unlock()
			return c.governed(pull, g), nil
		}
		if !c.fallThrough(err, true) {
			return nil, err
		}
		cause = err
	}
	return nil, cause
}

// fallThrough records that the current attempt failed with err and reports
// whether the execution falls through to the next strategy — the one
// degradation rule. A governance verdict is final and never counts against
// the breaker. Any other failure does, and degrades when degradable (no row
// has reached the caller yet) and the strategy was not the last; a failure
// that does not degrade is left for release to record on the attempt span.
func (c *Cursor) fallThrough(err error, degradable bool) bool {
	if governor.IsGovernance(err) {
		return false
	}
	s := c.strategy
	trip := c.st.brk.failure(s)
	degrade := degradable && c.next < len(c.chain)
	c.mu.Lock()
	if trip {
		c.breakerTrips++
	}
	if degrade {
		c.degradations++
	}
	c.mu.Unlock()
	if !degrade {
		return false
	}
	c.endAttempt(err)
	if c.root != nil {
		c.root.SetAttr("degraded_from", s.String())
		c.root.SetAttr("degradation_reason", err.Error())
	}
	return true
}

// step is the executor's one row: pull from the current attempt and, while
// a failure may still degrade (a Run drain, or a cursor that has handed out
// no row), fall through the chain; then run the row through any chained
// stages. Stage failures are terminal and say nothing about the strategy.
func (c *Cursor) step(pull func() (string, error)) (string, error) {
	for {
		row, err := pull()
		if err == nil {
			return c.applyChain(row)
		}
		if err == io.EOF {
			c.st.brk.success(c.strategy)
			return "", io.EOF
		}
		if !c.fallThrough(err, c.hold || c.rowsProduced == 0) {
			return "", err
		}
		if pull, err = c.advance(err); err != nil {
			return "", err
		}
		c.mu.Lock()
		c.pull = pull
		c.mu.Unlock()
	}
}

// applyChain runs one first-stage row through the chained stages and
// charges the pipeline's final row against the pipeline governor.
func (c *Cursor) applyChain(row string) (string, error) {
	if len(c.stages) == 0 {
		return row, nil
	}
	out, err := applyStages(c.stages, c.stageSps, row, c.chainGov)
	if err != nil {
		return "", err
	}
	if err := c.chainGov.AddRow(); err != nil {
		return "", err
	}
	if err := c.chainGov.AddOutput(len(out)); err != nil {
		return "", err
	}
	return out, nil
}

// openStrategy builds the raw per-row pull for one strategy under governor
// g, with counters routed to the cursor's sink and the run's spec applied:
// the SQL plan binds parameters and extra predicates into its access path;
// the fallback strategies apply the same driving predicates at view
// materialization (so every strategy selects the same rows) and bind the
// parameters into the XQuery environment. finish, non-nil only when traced,
// records the attempt's closing operator attributes. Open-time panics are
// contained so the chain can degrade past a broken strategy.
func (c *Cursor) openStrategy(s Strategy, g *governor.G) (pull func() (string, error), finish func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			pull, finish, err = nil, nil, fmt.Errorf("xsltdb: %s: %w", s, &InternalError{Panic: r, Stack: debug.Stack()})
		}
	}()

	st := c.st
	switch s {
	case StrategySQL:
		qc, err := c.db.exec.OpenQueryCursorSpec(st.plan, &c.sink, g, c.spec)
		if err != nil {
			return nil, nil, err
		}
		serSp := c.spec.Span.Start("serialize")
		return func() (string, error) {
			doc, err := qc.Next()
			if err != nil {
				return "", err
			}
			if serSp == nil {
				return serialize(doc), nil
			}
			start := time.Now()
			out := serialize(doc)
			serSp.ObserveSince(start)
			serSp.AddRowsIn(1)
			serSp.AddRowsOut(1)
			return out, nil
		}, nil, nil

	case StrategyXQuery:
		vc, err := c.db.exec.OpenViewCursorSpec(st.view, st.drivingWhere(), &c.sink, g, c.spec)
		if err != nil {
			return nil, nil, err
		}
		evalSp := c.spec.Span.Start("xquery-eval")
		var meter *xquery.EvalStats
		if evalSp != nil {
			meter = new(xquery.EvalStats)
			finish = func() {
				evalSp.SetAttr("eval_steps", meter.Steps.Load())
				evalSp.SetAttr("func_calls", meter.FuncCalls.Load())
			}
		}
		module := st.rewrite.Module
		params := c.spec.Params
		row := 0
		return func() (string, error) {
			doc, err := vc.Next()
			if err != nil {
				return "", err
			}
			var start time.Time
			if evalSp != nil {
				start = time.Now()
				evalSp.AddRowsIn(1)
			}
			env := bindEnv(xquery.NewEnv(xquery.Item(doc)), params)
			seq, err := xquery.EvalModule(module, env.Govern(g).Meter(meter))
			if err != nil {
				evalSp.Fail(err)
				return "", fmt.Errorf("xsltdb: row %d: %w", row, err)
			}
			row++
			out := xquery.SerializeSeq(seq)
			if evalSp != nil {
				evalSp.ObserveSince(start)
				evalSp.AddRowsOut(1)
			}
			return out, nil
		}, finish, nil

	default: // StrategyNoRewrite
		vc, err := c.db.exec.OpenViewCursorSpec(st.view, st.drivingWhere(), &c.sink, g, c.spec)
		if err != nil {
			return nil, nil, err
		}
		eng := xslt.New(st.sheet).Govern(g)
		interpSp := c.spec.Span.Start("xslt-interpret")
		if interpSp != nil {
			finish = func() { interpSp.SetAttr("templates_applied", eng.TemplatesApplied()) }
		}
		row := 0
		return func() (string, error) {
			doc, err := vc.Next()
			if err != nil {
				return "", err
			}
			var start time.Time
			if interpSp != nil {
				start = time.Now()
				interpSp.AddRowsIn(1)
			}
			s, err := eng.TransformToString(doc)
			if err != nil {
				interpSp.Fail(err)
				return "", fmt.Errorf("xsltdb: row %d: %w", row, err)
			}
			row++
			if interpSp != nil {
				interpSp.ObserveSince(start)
				interpSp.AddRowsOut(1)
			}
			return s, nil
		}, finish, nil
	}
}

// governed wraps a raw pull with the per-row governance work under the
// attempt's governor g: a sticky cancellation/limit check before the pull,
// row/output charging after it, and panic containment around the whole
// step.
func (c *Cursor) governed(pull func() (string, error), g *governor.G) func() (string, error) {
	return func() (s string, err error) {
		defer func() {
			if r := recover(); r != nil {
				c.panics.Add(1)
				s, err = "", fmt.Errorf("xsltdb: %s: %w", c.strategy, &InternalError{Panic: r, Stack: debug.Stack()})
			}
		}()
		if err := g.Check(); err != nil {
			return "", err
		}
		s, err = pull()
		if err != nil {
			return "", err
		}
		if err := g.AddRow(); err != nil {
			return "", err
		}
		if err := g.AddOutput(len(s)); err != nil {
			return "", err
		}
		return s, nil
	}
}

// Next returns the next serialized result row. It returns io.EOF at end of
// stream, an ErrCanceled-wrapping error if the cursor's context was
// cancelled, and ErrCursorClosed after Close. Any terminal error is sticky.
func (c *Cursor) Next() (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrCursorClosed
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return "", err
	}
	pull := c.pull
	c.mu.Unlock()

	start := time.Now()
	s, err := c.step(pull)
	wall := time.Since(start)

	c.mu.Lock()
	c.execWall += wall
	if c.closed {
		// Close won the race while the pull was in flight; Close already
		// released the cursor, so just report it gone.
		c.mu.Unlock()
		return "", ErrCursorClosed
	}
	if c.err != nil {
		// The database closed while the pull was in flight: its sentinel
		// wins over whatever the cancelled pull returned.
		err := c.err
		c.mu.Unlock()
		return "", err
	}
	if err != nil {
		c.err = err
		c.mu.Unlock()
		c.release()
		return "", err
	}
	c.rowsProduced++
	if c.hold {
		c.held = append(c.held, s)
	}
	c.mu.Unlock()
	return s, nil
}

// endAttempt closes the current attempt's span — its closing operator
// attributes, governor ticks, rows and failure, if any — exactly once.
func (c *Cursor) endAttempt(err error) {
	c.mu.Lock()
	attempt, finish, ticks, rows := c.attempt, c.finish, c.gov.Ticks(), c.rowsProduced
	c.attempt, c.finish = nil, nil
	c.mu.Unlock()
	if finish != nil {
		finish()
	}
	if attempt != nil {
		attempt.SetAttr("gov_ticks", ticks)
		attempt.AddRowsOut(rows)
		attempt.Fail(err)
		attempt.End()
	}
}

// release is the execution's single finish point: it cancels the run,
// merges this execution's counters into the database-wide aggregate,
// finishes its spans, records run metrics and archives the run — exactly
// once however Close, end-of-stream, and errors interleave. Must be called
// WITHOUT c.mu held: it takes the lock briefly for the stats snapshot.
func (c *Cursor) release() {
	c.releaseOnce.Do(func() {
		c.cancel()
		c.db.unregisterCursor(c)
		c.db.exec.AddStats(&c.sink)
		mActiveCursors.Dec()
		snapPins.unpin(c.pinID)

		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		outcome := err
		if outcome == io.EOF {
			outcome = nil
		}
		c.endAttempt(outcome)
		c.chainSp.End()
		es := c.Stats()
		if c.root != nil {
			if es.AccessPath != "" {
				c.root.SetAttr("access_path", es.AccessPath)
			}
			c.root.AddRowsOut(es.RowsProduced)
			c.root.Fail(outcome)
			c.root.End()
		}
		recordRunMetrics(&es, outcome)
		// err (pre-normalization) distinguishes a drained stream (io.EOF:
		// the actual row count is the true cardinality) from an early Close
		// or failure, where the actual says nothing about the estimate.
		keep := c.sampled && c.opts.Sampling.Sample(c.seq, es.CompileWall+es.ExecWall, outcome)
		c.db.archiveRun(c.db.history.Load(), c.kind, c.viewName, c.opened, c.spec, &es, outcome, c.trace, keep, err == io.EOF)
		if c.ownTrace {
			c.trace.Release()
		}
	})
}

// failDatabaseClosed terminates an in-flight execution because its database
// was closed: the sticky error becomes ErrDatabaseClosed and the cursor is
// released. Unlike an ordinary failure it never counts against the plan's
// circuit breaker — the strategy did nothing wrong — and it is safe to race
// with Next and Close (release runs exactly once).
func (c *Cursor) failDatabaseClosed() {
	c.mu.Lock()
	if !c.closed && c.err == nil {
		c.err = ErrDatabaseClosed
	}
	c.mu.Unlock()
	c.release() // idempotent; covers a cursor terminated but not yet released
}

// Close releases the cursor. Closing early — before io.EOF — is the way to
// abandon a partially-consumed stream: the run's context is cancelled (an
// in-flight Next in another goroutine aborts promptly), the remaining rows
// are never pulled, and this run's counters are merged into the aggregate
// at that point. Close is idempotent and safe to call concurrently.
func (c *Cursor) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.pull = nil // release plan/iterator references
	c.mu.Unlock()
	c.release()
	return nil
}

// Stats returns a snapshot of this execution's statistics; valid both
// mid-iteration and after Close.
func (c *Cursor) Stats() ExecStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	es := ExecStats{
		RowsProduced:    c.rowsProduced,
		AccessPath:      c.accessPath,
		EstRows:         c.estRows,
		Recompiles:      c.recompiles,
		CompileWall:     c.compileWall,
		ExecWall:        c.execWall,
		StrategyUsed:    c.strategy,
		Degradations:    c.degradations,
		BreakerSkips:    c.breakerSkips,
		BreakerTrips:    c.breakerTrips,
		PanicsRecovered: c.panics.Load(),
		GovTicks:        c.govTicks + int64(c.gov.Ticks()),
	}
	es.mergeSink(c.sink.Snapshot())
	return es
}

// Collect drains the cursor into a slice and closes it — Run semantics over
// a cursor; mostly useful in tests and small tools.
func (c *Cursor) Collect() ([]string, error) {
	defer c.Close()
	var out []string
	for {
		row, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
}
