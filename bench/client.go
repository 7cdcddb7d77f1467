package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// conn is one generator connection: an HTTP client pinned to a single
// keep-alive TCP connection, driven by one goroutine.
type conn struct {
	hc   *http.Client
	base string
	// refusals counts 429 replies to this connection's ingest posts;
	// maxPending is the deepest backlog any ingest reply reported.
	refusals   int
	maxPending int64
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// request performs one call and returns status and body.
func (c *conn) request(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// ingestReply is the POST /ingest response body.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Pending  int64  `json:"pending"`
	Error    string `json:"error"`
}

// backoff429 is how long a refused sender waits before resuming.
const backoff429 = 5 * time.Millisecond

// send delivers every line of batch b exactly once. When the daemon sheds
// the tail of a body (429) the sender backs off and resumes from the
// reported accepted offset, so an accepted line is never sent twice. It
// returns how many times the batch was refused.
func (c *conn) send(f *feed, b batch, wait bool) (refused int, err error) {
	path := "/ingest"
	if wait {
		path += "?wait=1"
	}
	body, done := b.body, 0
	for {
		status, raw, err := c.request(http.MethodPost, path, contentType(f.format), body)
		if err != nil {
			return refused, fmt.Errorf("post /ingest: %w", err)
		}
		var r ingestReply
		if err := json.Unmarshal(raw, &r); err != nil {
			return refused, fmt.Errorf("post /ingest: status %d, body %q: %w", status, raw, err)
		}
		left := b.n - done
		c.maxPending = max(c.maxPending, r.Pending)
		switch {
		case status == http.StatusAccepted && r.Accepted == left:
			return refused, nil
		case status == http.StatusTooManyRequests && r.Accepted+r.Rejected == left:
			refused++
			c.refusals++
			done += r.Accepted
			body = f.rest(b, done)
			time.Sleep(backoff429)
		default:
			return refused, fmt.Errorf("post /ingest: status %d accepted %d rejected %d of %d lines: %s", status, r.Accepted, r.Rejected, left, r.Error)
		}
	}
}

// processed asks GET /healthz how many lines the pipeline has taken in.
func (c *conn) processed() (int, error) {
	status, raw, err := c.request(http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return 0, fmt.Errorf("get /healthz: %w", err)
	}
	var h struct {
		Lines int `json:"lines"`
	}
	if err := json.Unmarshal(raw, &h); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("get /healthz: status %d body %q", status, raw)
	}
	return h.Lines, nil
}

// drain blocks until the daemon has fully processed every accepted line
// (an empty ?wait=1 post is the daemon's quiesce barrier) and fails unless
// it then reports nothing pending.
func (c *conn) drain() error {
	status, raw, err := c.request(http.MethodPost, "/ingest?wait=1", "text/plain", nil)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	var r ingestReply
	if err := json.Unmarshal(raw, &r); err != nil || status != http.StatusAccepted || r.Pending != 0 {
		return fmt.Errorf("drain: status %d body %q", status, raw)
	}
	return nil
}

// post issues a body-less admin POST (/seal, /snapshot) and expects 200.
func (c *conn) post(path string) error {
	status, raw, err := c.request(http.MethodPost, path, "", nil)
	if err != nil {
		return fmt.Errorf("post %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("post %s: status %d: %s", path, status, raw)
	}
	return nil
}

// metricSet is one /metrics scrape: sample value by "name" or
// "name{labels}" exactly as exposed.
type metricSet map[string]float64

// parseMetrics reads Prometheus text exposition format.
func parseMetrics(text string) (metricSet, error) {
	m := metricSet{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		m[strings.TrimSpace(line[:sp])] = v
	}
	return m, nil
}

// minus returns the per-sample change since before; a sample absent from
// before counts from zero.
func (m metricSet) minus(before metricSet) metricSet {
	d := make(metricSet, len(m))
	for k, v := range m {
		d[k] = v - before[k]
	}
	return d
}

// sumPrefix adds every sample whose key starts with prefix (a labelled
// family).
func (m metricSet) sumPrefix(prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func (c *conn) metrics() (metricSet, error) {
	status, raw, err := c.request(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, fmt.Errorf("get /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("get /metrics: status %d", status)
	}
	return parseMetrics(string(raw))
}
