package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// newClient returns an HTTP client holding at most one loopback
// connection. Compression is left to the caller so gzip bodies arrive as
// the server wrote them.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// sseClient is the one /v1/stream subscriber. Its reader goroutine
// appends every report event to the recorder and signals arrivals.
type sseClient struct {
	rec    *recorder
	client *http.Client
	body   io.ReadCloser
	// arrived is signalled (coalescing) after each event is recorded.
	arrived chan struct{}
	done    chan struct{}
	err     error // set before done closes
}

// sseBufSize bounds one SSE line; a served report is far smaller.
const sseBufSize = 4 << 20

func dialSSE(base string, rec *recorder) (*sseClient, error) {
	c := &sseClient{rec: rec, client: newClient(), arrived: make(chan struct{}, 1), done: make(chan struct{})}
	resp, err := c.client.Get(base + "/v1/stream")
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	c.body = resp.Body
	go c.run()
	return c, nil
}

// run parses `id:`/`event:`/`data:` events until the stream ends.
func (c *sseClient) run() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.body, sseBufSize)
	var id uint64
	var data []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.err = err
			}
			return
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case len(line) == 0:
			if data != nil {
				at := now()
				c.rec.mu.Lock()
				n := len(c.rec.events)
				// A subscriber that connects while a report is published
				// can be sent it twice; the duplicate is not a new report.
				if n == 0 || c.rec.events[n-1].version < id {
					c.rec.events = append(c.rec.events, eventRec{version: id, height: reportHeight(data), read: at, raw: data})
				}
				c.rec.mu.Unlock()
				select {
				case c.arrived <- struct{}{}:
				default:
				}
			}
			data = nil
		case bytes.HasPrefix(line, []byte("id: ")):
			id, err = strconv.ParseUint(string(line[4:]), 10, 64)
			if err != nil {
				c.err = fmt.Errorf("bad event id %q", line)
				return
			}
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[6:]...)
		}
	}
}

// waitHeight blocks until an event with height ≥ h has been read and
// returns its index in the recorder's events.
func (c *sseClient) waitHeight(h int64, timeout time.Duration) (int, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if i, ok := c.reached(h); ok {
			return i, nil
		}
		select {
		case <-c.arrived:
		case <-c.done:
			if i, ok := c.reached(h); ok {
				return i, nil
			}
			if c.err != nil {
				return 0, fmt.Errorf("stream ended: %w", c.err)
			}
			return 0, errors.New("stream ended")
		case <-timer.C:
			return 0, fmt.Errorf("no report for height %d within %s", h, timeout)
		}
	}
}

// reached returns the index of the latest event if its height is ≥ h.
func (c *sseClient) reached(h int64) (int, bool) {
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	n := len(c.rec.events)
	return n - 1, n > 0 && c.rec.events[n-1].height >= h
}

// close ends the stream and waits for the reader goroutine.
func (c *sseClient) close() {
	_ = c.body.Close()
	<-c.done
	c.client.CloseIdleConnections()
}

// reportHeight extracts the "height" field from a report's JSON head
// (absent, i.e. 0, before the first block).
func reportHeight(raw []byte) int64 {
	const key = `"height":`
	i := bytes.Index(raw, []byte(key))
	if i < 0 {
		return 0
	}
	j := i + len(key)
	k := j
	for k < len(raw) && raw[k] >= '0' && raw[k] <= '9' {
		k++
	}
	h, _ := strconv.ParseInt(string(raw[j:k]), 10, 64)
	return h
}

// getReport issues one GET with the given request headers, timed from
// due, and returns the decoded body.
func getReport(c *http.Client, url string, due int64, header map[string]string) readRec {
	r := readRec{due: due}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err == nil {
		for k, v := range header {
			req.Header.Set(k, v)
		}
		var resp *http.Response
		if resp, err = c.Do(req); err == nil {
			r.status, r.etag = resp.StatusCode, resp.Header.Get("ETag")
			r.body, err = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err == nil && resp.Header.Get("Content-Encoding") == "gzip" {
				r.body, err = gunzip(r.body)
			}
		}
	}
	r.done = now()
	r.failed = err != nil || (r.status != http.StatusOK && r.status != http.StatusNotModified)
	return r
}

func gunzip(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}
