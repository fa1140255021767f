package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptrace"
	"time"
)

// newClient returns an HTTP client holding at most conns connections to the
// server: the load never opens more connections than it has goroutines.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// requestTimeout bounds one request; a request that runs into it counts as
// failed.
const requestTimeout = 10 * time.Second

// timedGet fetches url and reports when the first response byte and the
// last arrived. keep selects whether the body is returned (for the
// correctness sample) or discarded.
type getResult struct {
	status    int
	firstByte time.Time
	done      time.Time
	bytes     int64
	body      []byte
	err       error
}

func timedGet(c *http.Client, url string, keep bool) getResult {
	var res getResult
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		res.err = err
		return res
	}
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { res.firstByte = time.Now() }}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	resp, err := c.Do(req)
	if err != nil {
		res.err = err
		res.done = time.Now()
		return res
	}
	res.status = resp.StatusCode
	if keep {
		var buf bytes.Buffer
		res.bytes, res.err = io.Copy(&buf, resp.Body)
		res.body = buf.Bytes()
	} else {
		res.bytes, res.err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	res.done = time.Now()
	return res
}
