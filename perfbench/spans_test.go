package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two children overlapping on [20,30]: their union is [10,50].
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},
		// A grandchild counts against its parent only.
		{ID: 4, Parent: 2, Name: "c", Start: ms(12), End: ms(15)},
		// A child running past the parent's end is clipped to it.
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)},
		// Another trace's root with a child nested in its own interval.
		{ID: 6, Trace: 2, Name: "root", Start: ms(200), End: ms(210)},
		{ID: 7, Trace: 2, Parent: 6, Name: "a", Start: ms(201), End: ms(209)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(100 - 40 - 10), ms(20 - 3), ms(30), ms(3), ms(30), ms(2), ms(8)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	totals := layerTotals(spans)
	if r := totals["root"]; r.Count != 2 || r.Self != ms(52) {
		t.Errorf("root totals %+v, want 2 spans, 52ms", r)
	}
	if a := totals["a"]; a.Count != 2 || a.Self != ms(25) {
		t.Errorf("a totals %+v, want 2 spans, 25ms", a)
	}
}

func TestSpanRecorder(t *testing.T) {
	var off *spanRecorder
	if id := off.begin(1, 0, "x"); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	off.end(0)

	r := newSpanRecorder()
	root := r.begin(7, 0, "request")
	child := r.begin(7, root, "serve.decode")
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Trace != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
}
