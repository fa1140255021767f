package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	xsltdb "repro"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xslt"
	"repro/serve"
)

// Dataset shape: the paper's dept/emp schema at ~180k rows.
const (
	numDepts     = 20000
	empsPerDept  = 8
	transformKey = "paper"
	viewName     = "dept_emp"
)

var (
	cities = []string{"NEW YORK", "BOSTON", "DALLAS", "CHICAGO", "SEATTLE", "DENVER",
		"ATLANTA", "MIAMI", "PHOENIX", "DETROIT", "PORTLAND", "AUSTIN"}
	deptWords = []string{"ACCOUNTING", "OPERATIONS", "RESEARCH", "SALES", "LEGAL",
		"SUPPORT", "MARKETING", "FINANCE", "LOGISTICS", "PLANNING"}
	names = []string{"CLARK", "MILLER", "SMITH", "JONES", "KING", "BLAKE", "SCOTT",
		"ADAMS", "FORD", "JAMES", "WARD", "TURNER", "ALLEN", "MARTIN"}
	jobs = []string{"CLERK", "ANALYST", "MANAGER", "SALESMAN", "VP"}
)

// dataset is the generated dept/emp content: rows exactly as inserted.
type dataset struct {
	depts [][]relstore.Value
	emps  [][]relstore.Value
}

// genDataset draws names, cities and salaries from seed. The same seed
// always yields the same rows (see TestSameSeedSameInputs).
func genDataset(seed int64) *dataset {
	r := rand.New(rand.NewSource(seed))
	ds := &dataset{
		depts: make([][]relstore.Value, 0, numDepts),
		emps:  make([][]relstore.Value, 0, numDepts*empsPerDept),
	}
	empno := int64(1000)
	for d := 1; d <= numDepts; d++ {
		dname := fmt.Sprintf("%s %d", deptWords[r.Intn(len(deptWords))], d)
		ds.depts = append(ds.depts, []relstore.Value{int64(d), dname, cities[r.Intn(len(cities))]})
		for e := 0; e < empsPerDept; e++ {
			empno++
			ds.emps = append(ds.emps, []relstore.Value{empno, names[r.Intn(len(names))],
				jobs[r.Intn(len(jobs))], int64(500 + r.Intn(4500)), int64(d)})
		}
	}
	return ds
}

// fingerprint hashes every generated row, so a test can assert that a seed
// reproduces the dataset exactly.
func (ds *dataset) fingerprint() uint64 {
	h := fnv.New64a()
	for _, rows := range [][][]relstore.Value{ds.depts, ds.emps} {
		for _, row := range rows {
			for _, v := range row {
				fmt.Fprint(h, v, "\x00")
			}
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// env is one ready-to-serve instance of the shared dataset: a WAL-backed
// database reopened from its directory, the xsltd server over it on a
// loopback listener, and the timings of getting there.
type env struct {
	dir      string
	db       *xsltdb.Database
	srv      *serve.Server
	httpSrv  *http.Server
	base     string // http://127.0.0.1:port
	served   chan error
	recovery []time.Duration // process CPU time of each reopen's WAL replay
	setup    time.Duration
}

// reopens is how many times setup closes and reopens the loaded database;
// each reopen is one recovery_s sample.
const reopens = 2

// walPolicy is the fsync policy the workloads run under; the bulk load uses
// SyncNever, and Close syncs it before the timed reopen.
const (
	walPolicy    = xsltdb.SyncInterval
	walSyncEvery = 16 // the WAL default group
)

// setupEnv generates and loads the dataset into a fresh WAL directory,
// closes and reopens it (each reopen is a recovery time), builds the view
// and indexes, starts the server with the paper transform registered, and
// warms it up until a request succeeds.
func setupEnv(dir string, ds *dataset, wrap func(http.Handler) http.Handler) (*env, error) {
	start := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := bulkLoad(dir, ds); err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	for i := 0; i < reopens; i++ {
		if e.db != nil {
			if err := e.db.Close(); err != nil {
				return nil, err
			}
		}
		recStart := processCPU()
		db, err := xsltdb.Open(xsltdb.WithDir(dir), xsltdb.WithSyncPolicy(walPolicy), xsltdb.WithSyncEvery(walSyncEvery))
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		e.db = db
		e.recovery = append(e.recovery, processCPU()-recStart)
	}
	db := e.db
	if err := e.startServer(wrap); err != nil {
		_ = db.Close()
		return nil, err
	}
	if err := e.warm(); err != nil {
		e.close()
		return nil, err
	}
	e.setup = time.Since(start)
	return e, nil
}

// bulkLoad writes the schema, rows, indexes and view through the durable
// API, so that the reopen replays all of it.
func bulkLoad(dir string, ds *dataset) error {
	db, err := xsltdb.Open(xsltdb.WithDir(dir), xsltdb.WithSyncPolicy(xsltdb.SyncNever))
	if err != nil {
		return err
	}
	load := func() error {
		if err := db.CreateTable("dept",
			xsltdb.TableColumn{Name: "deptno", Type: xsltdb.IntCol},
			xsltdb.TableColumn{Name: "dname", Type: xsltdb.StringCol},
			xsltdb.TableColumn{Name: "loc", Type: xsltdb.StringCol}); err != nil {
			return err
		}
		if err := db.CreateTable("emp",
			xsltdb.TableColumn{Name: "empno", Type: xsltdb.IntCol},
			xsltdb.TableColumn{Name: "ename", Type: xsltdb.StringCol},
			xsltdb.TableColumn{Name: "job", Type: xsltdb.StringCol},
			xsltdb.TableColumn{Name: "sal", Type: xsltdb.IntCol},
			xsltdb.TableColumn{Name: "deptno", Type: xsltdb.IntCol}); err != nil {
			return err
		}
		for _, row := range ds.depts {
			if err := db.Insert("dept", row...); err != nil {
				return err
			}
		}
		for _, row := range ds.emps {
			if err := db.Insert("emp", row...); err != nil {
				return err
			}
		}
		for _, ix := range [][2]string{{"dept", "deptno"}, {"emp", "deptno"}, {"emp", "sal"}} {
			if err := db.CreateIndex(ix[0], ix[1]); err != nil {
				return err
			}
		}
		return db.CreateXMLView(sqlxml.DeptEmpView())
	}
	if err := load(); err != nil {
		_ = db.Close()
		return fmt.Errorf("bulk load: %w", err)
	}
	return db.Close()
}

// startServer runs serve.Server with xsltd's defaults (256-entry result
// cache, no shedding) and the wide-event pipeline and run history on, as
// xsltd runs whenever its console is enabled. wrap, when set, wraps the
// handler the listener serves (the traced run times requests with it).
func (e *env) startServer(wrap func(http.Handler) http.Handler) error {
	e.db.EnableRunHistory(0)
	srv, err := serve.New(serve.Config{DB: e.db, EnableEvents: true})
	if err != nil {
		return err
	}
	if err := srv.RegisterTransform(transformKey, viewName, xslt.PaperStylesheet); err != nil {
		srv.Close()
		return err
	}
	srv.MarkReady()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	e.srv = srv
	e.base = "http://" + ln.Addr().String()
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	e.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	return nil
}

// warm issues requests until the server answers one with 200, then runs
// one report-sized request so lazy compilation is done before timing.
func (e *env) warm() error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for _, q := range []string{lookupReq(1).path(), reportReq(1, 1+reportWindow).path()} {
		for {
			body, status, err := getWithSpan(c, e.base+q, -1)
			if err == nil && status == http.StatusOK && len(body) > 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm-up: status %d, err %v", status, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// close stops the HTTP server, the serving pipeline and the database, and
// waits for the serve goroutine to return.
func (e *env) close() {
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.httpSrv.Shutdown(ctx)
		cancel()
		<-e.served
	}
	if e.srv != nil {
		e.srv.Close()
	}
	_ = e.db.Close()
}

// walBytes sums the sizes of the WAL directory's files.
func walBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// joinRows renders result rows exactly as the serve layer writes them.
func joinRows(rows []string) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}
