package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall drives a handler that stalls once. The requests
// due during the stall must carry the wait in their latency: a closed-loop
// client would have sent them only after the stall and reported them fast
// (coordinated omission).
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	reqs := make([]request, 12)
	for i := range reqs {
		reqs[i] = request{Due: time.Duration(i) * 20 * time.Millisecond, Path: "/", Body: []byte("{}")}
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	res := openLoop(context.Background(), c, srv.URL, "k", reqs, 1, 0)

	for i := range res {
		if !res[i].OK() {
			t.Fatalf("request %d: %v %d", i, res[i].Err, res[i].Status)
		}
	}
	// Request 5 was due at 100ms, mid-stall: it cannot finish before the
	// stall ends at 300ms, so its latency from due is at least 200ms less
	// slack, and it waited in the queue for the busy connection.
	if lat := res[5].Latency(); lat < 150*time.Millisecond {
		t.Errorf("request due mid-stall: latency %v, want the stall's remaining ~200ms charged to it", lat)
	}
	if res[5].QueueWait() < 150*time.Millisecond {
		t.Errorf("request due mid-stall: queue wait %v, want ~200ms", res[5].QueueWait())
	}
	// Its service time alone (start to done) is short: only timing from
	// the due time exposes the stall.
	if svc := res[5].Done - res[5].Start; svc > 100*time.Millisecond {
		t.Errorf("request due mid-stall took %v to serve; the stub should answer at once", svc)
	}
	// Once the backlog has drained, the last request is on time again.
	if lat := res[11].Latency(); lat > 100*time.Millisecond {
		t.Errorf("last request latency %v; backlog never drained", lat)
	}
}

func TestOpenLoopAbort(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
	}))
	defer srv.Close()
	reqs := make([]request, 20) // all due at once: the backlog grows at once
	for i := range reqs {
		reqs[i] = request{Path: "/", Body: []byte("{}")}
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	res := openLoop(context.Background(), c, srv.URL, "k", reqs, 1, 120*time.Millisecond)
	sentN := summarise(res).Attempted
	if sentN == len(reqs) || sentN < 2 {
		t.Errorf("abort after 120ms late: %d of %d sent", sentN, len(reqs))
	}
}
