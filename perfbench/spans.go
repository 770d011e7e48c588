package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one request share Trace; Parent is the enclosing span's ID (0
// for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run measures: the same code
// path with tracing off.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *spanRecorder) begin(trace, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// snapshot returns a copy of every span recorded so far.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line to path.
func (r *spanRecorder) writeJSONL(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.snapshot() {
		if err := enc.Encode(&s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the union of its direct children's intervals, each
// clipped to the span. Overlapping children (concurrent work under one
// parent) are counted once, so self time is never negative.
func selfTimes(spans []span) []time.Duration {
	pos := make(map[int]int, len(spans))
	for i := range spans {
		pos[spans[i].ID] = i
	}
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := pos[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i := range spans {
		out[i] = spans[i].dur() - covered(spans[i], kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// parent.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerTotals sums self time and counts spans per span name.
type layerTotal struct {
	Self  time.Duration
	Count int
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.Self += self[i]
		t.Count++
		out[s.Name] = t
	}
	return out
}
