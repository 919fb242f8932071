package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"secreta/internal/obs"
)

// op is one step of a workload's request sequence: a job submission
// (POST /anonymize or /compare, then polling its result route).
type op struct {
	path string
	body []byte
	// result is the route polled for a job's result, with {id} standing
	// for the job ID.
	result string
	// verify checks a finished job's result body.
	verify func(body []byte) error
}

// jobSample is one job as the client saw it, in wall-clock nanoseconds
// (the server's trace timestamps share the clock: same process).
type jobSample struct {
	id                                           string
	submitStart, submitEnd, fetchStart, fetchEnd int64
	polls                                        int
	trace                                        *obs.TraceView
}

func (s *jobSample) turnaroundMS() float64 { return float64(s.fetchEnd-s.submitStart) / 1e6 }

// client is one closed-loop client: it sends its next request only after
// the previous one completed. It records its operations in its ledger
// and its jobs as samples.
type client struct {
	hc     *http.Client
	base   string
	traced bool
	led    ledger
	jobs   []jobSample
	buf    bytes.Buffer
}

func nowNS() int64 { return time.Now().UnixNano() }

// do issues one HTTP call, reads the whole response into c.buf and counts
// it: a transport error or a 4xx/5xx status is a failed operation.
func (c *client) do(method, path string, body []byte) (int, error) {
	status, err := c.call(method, path, body)
	c.led.record(err == nil && httpOK(status))
	if err == nil && !httpOK(status) {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return status, err
}

func (c *client) call(method, path string, body []byte) (int, error) {
	c.buf.Reset()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// jobTimeout bounds one job's turnaround; a job still unfinished after it
// is a failed operation.
const jobTimeout = 60 * time.Second

// run performs one op and returns an error for any failed call or check.
// Failures are already counted in c.led.
func (c *client) run(o op) error {
	s, body, err := c.job(o)
	// The job itself is an operation: it either ends done or it failed.
	c.led.record(err == nil)
	if err != nil {
		return err
	}
	if err := o.verify(body); err != nil {
		c.led.record(false)
		return fmt.Errorf("job %s: output check: %w", s.id, err)
	}
	c.led.record(true)
	if c.traced {
		if s.trace, err = c.fetchTrace(s.id); err != nil {
			return err
		}
	}
	c.jobs = append(c.jobs, s)
	return nil
}

// job submits o and polls its result route until the result arrives. The
// poll that sees the job done is also the fetch: its response carries the
// result. Poll spacing grows with the time already waited (a tenth of
// it, within 50µs..4ms), so the gap between a job finishing and the
// client noticing stays a small share of its turnaround.
func (c *client) job(o op) (jobSample, []byte, error) {
	var s jobSample
	s.submitStart = nowNS()
	if _, err := c.do(http.MethodPost, o.path, o.body); err != nil {
		return s, nil, err
	}
	s.submitEnd = nowNS()
	var sub struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &sub); err != nil || sub.Job == "" {
		return s, nil, fmt.Errorf("submit %s: no job id in %q", o.path, c.buf.Bytes())
	}
	s.id = sub.Job
	path := resultPath(o.result, s.id)
	for {
		s.fetchStart = nowNS()
		status, err := c.do(http.MethodGet, path, nil)
		s.polls++
		if err != nil {
			return s, nil, fmt.Errorf("job %s: %w", s.id, err)
		}
		if status == http.StatusOK {
			s.fetchEnd = nowNS()
			return s, c.buf.Bytes(), nil
		}
		if status != http.StatusAccepted {
			return s, nil, fmt.Errorf("job %s: result status %d", s.id, status)
		}
		waited := time.Duration(nowNS() - s.submitStart)
		if waited > jobTimeout {
			return s, nil, fmt.Errorf("job %s: not done after %v", s.id, jobTimeout)
		}
		time.Sleep(min(max(waited/10, 50*time.Microsecond), 4*time.Millisecond))
	}
}

func resultPath(pattern, id string) string { return strings.ReplaceAll(pattern, "{id}", id) }

// fetchTrace reads a finished job's span tree from GET /jobs/{id}/trace
// right away, before job retention can evict it. The job is visible as
// done a moment before its trace closes (the journal's finish record
// comes in between), so an incomplete trace is re-read.
func (c *client) fetchTrace(id string) (*obs.TraceView, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.do(http.MethodGet, "/jobs/"+id+"/trace", nil); err != nil {
			return nil, err
		}
		var tv obs.TraceView
		if err := json.Unmarshal(c.buf.Bytes(), &tv); err != nil {
			return nil, fmt.Errorf("job %s: decoding trace: %w", id, err)
		}
		if tv.Complete && tv.Trace != nil {
			return &tv, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s: trace still open after 10s", id)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// getJSON fetches a JSON document outside any client's accounting (the
// readiness probe and /stats snapshots).
func getJSON(hc *http.Client, url string, dst any) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
	}
	return resp.StatusCode, nil
}
