package main

import (
	"math/rand"
	"net/url"
	"strconv"

	xsltdb "repro"
	"repro/internal/relstore"
)

// Request shapes of the HTTP workloads.
const (
	// reportWindow is the number of depts one report request covers.
	reportWindow = 500
	// zipfS is the skew of lookup's key distribution.
	zipfS = 1.1
)

// readReq is one transform request: a driving predicate plus its bound
// parameters, sent over HTTP as where=...&p.<name>=... and replayed through
// the library as WithWhere + WithParam.
type readReq struct {
	where  string
	params []param
}

type param struct {
	name string
	val  int64
}

func lookupReq(d int) readReq {
	return readReq{where: "deptno = $d", params: []param{{"d", int64(d)}}}
}

func reportReq(lo, hi int) readReq {
	return readReq{where: "deptno >= $lo and deptno < $hi", params: []param{{"lo", int64(lo)}, {"hi", int64(hi)}}}
}

// path is the request's URL path and query.
func (r readReq) path() string {
	q := url.Values{"where": {r.where}}
	for _, p := range r.params {
		q.Set("p."+p.name, strconv.FormatInt(p.val, 10))
	}
	return "/v1/transform/" + transformKey + "?" + q.Encode()
}

// runOpts are the library run options equivalent to the request's query.
func (r readReq) runOpts() []xsltdb.RunOption {
	opts := []xsltdb.RunOption{xsltdb.WithWhere(r.where)}
	for _, p := range r.params {
		opts = append(opts, xsltdb.WithParam(p.name, p.val))
	}
	return opts
}

func (r readReq) String() string { return r.path() }

// readStream draws a workload's read requests from its seed.
type readStream struct {
	r    *rand.Rand
	zipf *rand.Zipf
	perm []int // zipf rank → deptno-1, so hot keys are spread over the table
	kind string
}

func newReadStream(kind string, seed int64) *readStream {
	r := rand.New(rand.NewSource(seed))
	s := &readStream{r: r, kind: kind}
	if kind == "report" {
		return s
	}
	s.perm = r.Perm(numDepts)
	s.zipf = rand.NewZipf(r, zipfS, 1, numDepts-1)
	return s
}

func (s *readStream) next() readReq {
	if s.kind == "report" {
		lo := 1 + s.r.Intn(numDepts-reportWindow+1)
		return reportReq(lo, lo+reportWindow)
	}
	return lookupReq(s.perm[s.zipf.Uint64()] + 1)
}

// writeStream draws the rows mixed inserts into emp.
type writeStream struct {
	r     *rand.Rand
	empno int64
}

func newWriteStream(seed int64) *writeStream {
	return &writeStream{r: rand.New(rand.NewSource(seed)), empno: 10_000_000}
}

func (s *writeStream) next() []relstore.Value {
	s.empno++
	return []relstore.Value{s.empno, names[s.r.Intn(len(names))], jobs[s.r.Intn(len(jobs))],
		int64(500 + s.r.Intn(4500)), int64(1 + s.r.Intn(numDepts))}
}

// Seeds of the independent streams one --seed drives.
func streamSeed(seed int64, stream string) int64 {
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return seed*1_000_003 + h
}
