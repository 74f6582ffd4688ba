package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		// Overlapping children cover [10,50]; the last one outlives
		// the parent and only [90,100] of it counts.
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "child", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15 * ms, End: 25 * ms},
		{ID: 6, Name: "root2", Start: 200 * ms, End: 210 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 10 * ms, 3: 30 * ms, 4: 30 * ms, 5: 10 * ms, 6: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	tot := layerTotals(spans)
	if tot["child"].Self != 70*ms || tot["child"].Spans != 3 {
		t.Errorf("child totals = %+v", tot["child"])
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	p := tr.start("outer", 0, 7)
	c := tr.start("inner", p, 7)
	tr.end(c)
	tr.end(p)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child interval not inside parent: %+v", spans)
	}
	var off *tracer
	if id := off.start("x", 0, 0); id != 0 {
		t.Errorf("untraced start returned %d", id)
	}
	off.end(0) // must not panic
}
