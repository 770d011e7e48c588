package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sent is what the open-loop generator observed for one request. Times are
// offsets from the start of the schedule.
type sent struct {
	Due    time.Duration // when the schedule said to send it
	Picked time.Duration // when a sender became free and took it
	Start  time.Duration // when the request was written
	Done   time.Duration // when the response body was read; 0 if never sent
	Status int
	Body   []byte
	Err    error
}

// Latency is the request's time from its due time to its response, so a
// stall that delays later sends is charged to them (no coordinated
// omission).
func (s *sent) Latency() time.Duration { return s.Done - s.Due }

// QueueWait is how long the request waited, past its due time, for a free
// sender: the backlog the system under test built.
func (s *sent) QueueWait() time.Duration {
	if s.Picked > s.Due {
		return s.Picked - s.Due
	}
	return 0
}

// Lateness is how late the generator itself sent a request once it was
// both due and picked: timer and scheduler slack on the load machine,
// which should stay near zero.
func (s *sent) Lateness() time.Duration {
	ready := s.Due
	if s.Picked > ready {
		ready = s.Picked
	}
	return s.Start - ready
}

// OK reports a 200 response.
func (s *sent) OK() bool { return s.Err == nil && s.Status == http.StatusOK }

// newClient is the generator's HTTP client: at most conns keep-alive
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one request and reads the whole response.
func post(ctx context.Context, c *http.Client, url, key string, body []byte) (int, []byte, error) {
	method := http.MethodPost
	var rd io.Reader = bytes.NewReader(body)
	if body == nil {
		method, rd = http.MethodGet, nil
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", key)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// openLoop sends reqs on their schedule from conns sender goroutines over
// c, and returns what each request saw, in schedule order. A request due
// while every sender is busy waits for the first free one, and its latency
// still counts from its due time. With abortOver > 0 the generator stops
// taking new requests once any response arrives later than that past its
// due time: the probe has failed and the rest would only deepen the
// backlog. Unsent requests have Done == 0.
func openLoop(ctx context.Context, c *http.Client, base, key string, reqs []request, conns int, abortOver time.Duration) []sent {
	out := make([]sent, len(reqs))
	for i := range reqs {
		out[i].Due = reqs[i].Due
	}
	var next atomic.Int64
	var stop atomic.Bool
	epoch := now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || stop.Load() || ctx.Err() != nil {
					return
				}
				r := &reqs[i]
				s := &out[i]
				s.Picked = since(epoch)
				if wait := r.Due - s.Picked; wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				s.Start = since(epoch)
				s.Status, s.Body, s.Err = post(ctx, c, base+r.Path, key, r.Body)
				s.Done = since(epoch)
				if abortOver > 0 && s.Latency() > abortOver {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	Attempted, Failed int
	Latencies         []float64 // ms, successful requests only
	QueueWaits        []float64 // ms
	Lateness          []float64 // ms
}

func summarise(results []sent) phaseStats {
	var p phaseStats
	for i := range results {
		s := &results[i]
		if s.Done == 0 {
			continue
		}
		p.Attempted++
		p.QueueWaits = append(p.QueueWaits, ms(s.QueueWait()))
		p.Lateness = append(p.Lateness, ms(s.Lateness()))
		if !s.OK() {
			p.Failed++
			continue
		}
		p.Latencies = append(p.Latencies, ms(s.Latency()))
	}
	return p
}
