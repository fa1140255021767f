package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	xsltdb "repro"
	"repro/internal/xsltmark"
)

// caseRows is the record count every xsltmark case runs at: database-backed
// cases over their relational backing, standalone cases over the generated
// document.
const caseRows = 500

// markCase is one XSLTMark case ready to run, with its reference output.
type markCase struct {
	name string
	// Database-backed cases: ct is sheet compiled against db's view.
	db   *xsltdb.Database
	view string
	ct   *xsltdb.CompiledTransform
	// Standalone cases: doc and sheet go to xsltdb.Transform.
	doc, sheet string
	// ref is the output every run is compared with (see references).
	ref string
}

// markSuite holds the 40 cases. Cases that share a relational backing
// (same index columns) share one database.
type markSuite struct {
	cases []*markCase
	// setupCPU is the process CPU time of setupMarks and compileCPU the
	// part of it spent in CompileTransform.
	setupCPU, compileCPU time.Duration
}

// setupMarks is xsltmark's set-up: it generates the standalone cases'
// documents, loads the relational backings with their indexes and views,
// and compiles every database-backed case. The reference outputs are the
// benchmark's oracle, not set-up, and come from references.
func setupMarks(n int) (*markSuite, error) {
	start := processCPU()
	suite := &markSuite{}
	dbs := map[string]*xsltdb.Database{}
	for _, c := range xsltmark.All() {
		mc := &markCase{name: c.Name}
		suite.cases = append(suite.cases, mc)
		if c.Rel == nil {
			mc.doc, mc.sheet = c.Gen(n), c.Stylesheet
			continue
		}
		var idx []string
		for table, cols := range c.Rel.IndexCols {
			for _, col := range cols {
				idx = append(idx, table+"."+col)
			}
		}
		sort.Strings(idx)
		key := strings.Join(idx, ",")
		db := dbs[key]
		if db == nil {
			var err error
			if db, err = caseDB(c, n); err != nil {
				return nil, fmt.Errorf("xsltmark %s: %w", c.Name, err)
			}
			dbs[key] = db
		}
		mc.db, mc.view, mc.sheet = db, c.Rel.View().Name, c.Stylesheet
		cpu0 := processCPU()
		ct, err := db.CompileTransform(mc.view, mc.sheet)
		suite.compileCPU += processCPU() - cpu0
		if err != nil {
			return nil, fmt.Errorf("xsltmark %s: compile: %w", c.Name, err)
		}
		mc.ct = ct
	}
	suite.setupCPU = processCPU() - start
	return suite, nil
}

// references computes every case's reference output: the interpreter's
// output (forced no-rewrite) over a database-backed case's rows, or a
// standalone case's first xsltdb.Transform output, which every later run
// must repeat.
func (s *markSuite) references() error {
	for _, mc := range s.cases {
		var err error
		if mc.ct == nil {
			mc.ref, err = xsltdb.Transform(mc.doc, mc.sheet)
		} else {
			mc.ref, err = interpreterOutput(mc.db, mc.view, mc.sheet)
		}
		if err != nil {
			return fmt.Errorf("xsltmark %s: reference: %w", mc.name, err)
		}
	}
	return nil
}

// caseDB builds an in-memory database holding case c's relational backing
// at n records, with its indexes and view.
func caseDB(c *xsltmark.Case, n int) (*xsltdb.Database, error) {
	db := xsltdb.NewDatabase()
	if err := c.Rel.Setup(db.Rel(), n); err != nil {
		return nil, err
	}
	for table, cols := range c.Rel.IndexCols {
		for _, col := range cols {
			if err := db.CreateIndex(table, col); err != nil {
				return nil, err
			}
		}
	}
	return db, db.CreateXMLView(c.Rel.View())
}

// interpreterOutput is the reference every check compares against: the
// functional XSLT interpreter over the same rows, joined as serve writes it.
func interpreterOutput(db *xsltdb.Database, view, sheet string, opts ...xsltdb.RunOption) (string, error) {
	ct, err := db.CompileTransform(view, sheet, xsltdb.WithForcedStrategy(xsltdb.StrategyNoRewrite))
	if err != nil {
		return "", err
	}
	res, err := ct.Run(context.Background(), opts...)
	if err != nil {
		return "", err
	}
	return joinRows(res.Rows), nil
}

// caseResult is one case-run as the xsltmark workload observes it.
type caseResult struct {
	firstRow time.Time // first result row available
	out      string
	strategy xsltdb.Strategy
	err      error
}

// run executes the case once. With stream set, database-backed cases pull
// rows through OpenCursor, so the first row's arrival is observable;
// otherwise they materialize through Run. Standalone cases always go
// through xsltdb.Transform, whose first byte is its whole result.
func (mc *markCase) run(stream bool) caseResult {
	if mc.ct == nil {
		out, err := xsltdb.Transform(mc.doc, mc.sheet)
		return caseResult{firstRow: time.Now(), out: out, strategy: xsltdb.StrategyNoRewrite, err: err}
	}
	if !stream {
		res, err := mc.ct.Run(context.Background())
		if err != nil {
			return caseResult{err: err}
		}
		return caseResult{firstRow: time.Now(), out: joinRows(res.Rows), strategy: res.Stats.StrategyUsed}
	}
	cur, err := mc.ct.OpenCursor(context.Background())
	if err != nil {
		return caseResult{err: err}
	}
	defer cur.Close()
	var res caseResult
	var sb strings.Builder
	for {
		row, err := cur.Next()
		if res.firstRow.IsZero() {
			res.firstRow = time.Now()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			res.err = err
			return res
		}
		sb.WriteString(row)
		sb.WriteByte('\n')
	}
	res.out, res.strategy = sb.String(), cur.Stats().StrategyUsed
	return res
}
