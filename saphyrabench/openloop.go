package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"saphyra/internal/loadgen"
	"saphyra/internal/serve"
)

// endpoint is an HTTP serving target on loopback.
type endpoint struct {
	base   string
	client *http.Client
	// traceHeader asks for span trees with a Trace-Id header rather than
	// ?trace=1: the cluster router forwards headers but drops the rank
	// query string.
	traceHeader bool
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
	}}
}

// outcome classifies one request.
type outcome uint8

const (
	outOK outcome = iota
	outDegraded
	outShed
	outDeadline
	outError
)

// call is one scheduled request and what came of it. Times are offsets
// from the start of the run.
type call struct {
	ev       *loadgen.Event
	seq      int           // position in the run
	due      time.Duration // open loop: the schedule's time; closed loop: when sent
	dispatch time.Duration // when the generator handed it to a connection
	sent     time.Duration // when a connection began sending it
	done     time.Duration // when the response was read
	out      outcome
	cached   bool
	resp     *serve.RankResponse // kept only when verified or traced
	err      error
}

// latency is completion minus the due time: in an open loop a stall also
// charges the requests queued behind it.
func (c *call) latency() time.Duration { return c.done - c.due }

// loopOpts configures one run.
type loopOpts struct {
	conns       int  // client connections (at most nproc)
	traced      bool // ask the server for span trees
	verifyEvery int  // keep every Nth response (by call seq) for verification
	seqBase     int  // added to the call seq sent in X-Bench-Seq
}

// keep reports whether call seq's response is retained.
func (o loopOpts) keep(seq int) bool {
	return o.traced || (o.verifyEvery > 0 && seq%o.verifyEvery == 0)
}

// requests lists the schedule's request events (reloads excluded).
func requests(s *loadgen.Schedule) []*loadgen.Event {
	var evs []*loadgen.Event
	for i := range s.Events {
		if s.Events[i].Kind != loadgen.EventReload {
			evs = append(evs, &s.Events[i])
		}
	}
	return evs
}

// loopRun is the outcome of replaying one schedule.
type loopRun struct {
	calls   []call
	elapsed time.Duration // start to last completion
	lastDue time.Duration
	steal   *stealLog
	wrapped bool // a closed loop went through its schedule more than once
}

// runOpenLoop replays the schedule: each request is handed to a connection
// at its due time, whatever the state of earlier requests.
func runOpenLoop(ep *endpoint, s *loadgen.Schedule, o loopOpts) *loopRun {
	evs := requests(s)
	r := &loopRun{calls: make([]call, len(evs))}
	work := make(chan int, len(evs))
	var wg sync.WaitGroup
	start := time.Now()
	r.steal = startStealLog(start)
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c := &r.calls[i]
				c.sent = time.Since(start)
				ep.do(c, o.seqBase+i, o.traced, o.keep(i))
				c.done = time.Since(start)
			}
		}()
	}
	for i, ev := range evs {
		r.calls[i] = call{ev: ev, seq: i, due: ev.At}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(work)
		pace := newPacer()
		for i, ev := range evs {
			if gap := ev.At - time.Since(start); gap > 0 {
				pace.sleep(gap)
			}
			r.calls[i].dispatch = time.Since(start)
			work <- i
		}
	}()
	wg.Wait()
	r.elapsed = time.Since(start)
	r.steal.close()
	if len(evs) > 0 {
		r.lastDue = evs[len(evs)-1].At
	}
	return r
}

// runClosedLoop sends the schedule's requests back to back over o.conns
// connections until d has passed, cycling through the schedule in order:
// each connection sends its next request when the previous one is
// answered. A call is due when it is sent, so latency is the round trip.
func runClosedLoop(ep *endpoint, s *loadgen.Schedule, d time.Duration, o loopOpts) *loopRun {
	evs := requests(s)
	per := make([][]call, o.conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	r := &loopRun{steal: startStealLog(start)}
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				c := call{ev: evs[i%len(evs)], seq: i, sent: time.Since(start)}
				c.due, c.dispatch = c.sent, c.sent
				ep.do(&c, o.seqBase+i, o.traced, o.keep(i))
				c.done = time.Since(start)
				per[w] = append(per[w], c)
			}
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.steal.close()
	r.wrapped = next.Load() > int64(len(evs))
	for _, cs := range per {
		r.calls = append(r.calls, cs...)
	}
	slices.SortFunc(r.calls, func(a, b call) int { return a.seq - b.seq })
	return r
}

// do sends one request and records its outcome; keep retains the decoded
// response.
func (ep *endpoint) do(c *call, seq int, traced, keep bool) {
	req, err := ep.request(c.ev, seq, traced)
	if err != nil {
		c.out, c.err = outError, err
		return
	}
	resp, err := ep.client.Do(req)
	if err != nil {
		c.out, c.err = outError, err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.out, c.err = outError, err
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		c.out = outShed
		return
	case http.StatusGatewayTimeout:
		c.out = outDeadline
		return
	default:
		c.out, c.err = outError, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var rr serve.RankResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		c.out, c.err = outError, fmt.Errorf("bad response body: %w", err)
		return
	}
	c.out, c.cached = outOK, rr.Cached
	if rr.Degraded {
		c.out = outDegraded
	}
	if keep {
		c.resp = &rr
	}
}

// request builds the HTTP request for a scheduled event.
func (ep *endpoint) request(ev *loadgen.Event, seq int, traced bool) (*http.Request, error) {
	var req *http.Request
	var err error
	if ev.Kind == loadgen.EventTopK {
		q := url.Values{}
		q.Set("method", ev.Method)
		q.Set("k", strconv.Itoa(ev.TopK))
		q.Set("eps", strconv.FormatFloat(ev.Eps, 'g', -1, 64))
		q.Set("delta", strconv.FormatFloat(ev.Delta, 'g', -1, 64))
		q.Set("seed", strconv.FormatInt(ev.Seed, 10))
		if ev.K != 0 {
			q.Set("walk_k", strconv.Itoa(ev.K))
		}
		if traced && !ep.traceHeader {
			q.Set("trace", "1")
		}
		req, err = http.NewRequest("GET", ep.base+"/v1/topk?"+q.Encode(), nil)
	} else {
		body, merr := json.Marshal(serve.RankRequest{
			Method: ev.Method, Targets: ev.Targets,
			Eps: ev.Eps, Delta: ev.Delta, K: ev.K, Seed: ev.Seed,
		})
		if merr != nil {
			return nil, merr
		}
		path := "/v1/rank"
		if traced && !ep.traceHeader {
			path += "?trace=1"
		}
		req, err = http.NewRequest("POST", ep.base+path, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return nil, err
	}
	if ev.ClientID != "" {
		req.Header.Set("Client-Id", ev.ClientID)
	}
	if ev.DegradeMs > 0 {
		req.Header.Set("Degrade-Ms", strconv.Itoa(ev.DegradeMs))
	}
	if ev.TimeoutMs > 0 {
		req.Header.Set("Timeout-Ms", strconv.Itoa(ev.TimeoutMs))
	}
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	if traced && ep.traceHeader {
		req.Header.Set("Trace-Id", "bench-"+strconv.Itoa(seq))
	}
	return req, nil
}

// seqHeader carries the request's sequence number to the benchmark's own
// handler wrappers, which time the server side of each request.
const seqHeader = "X-Bench-Seq"
