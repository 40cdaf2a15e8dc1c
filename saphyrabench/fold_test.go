package main

import (
	"math"
	"testing"

	"saphyra/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A root with two overlapping children (parallel workers), a grandchild,
// and a span emitted as a trace root although its enclosing call caused it.
func syntheticTrace() *obs.TraceJSON {
	return &obs.TraceJSON{
		Spans: []*obs.SpanJSON{
			{Name: "rank", StartUs: 0, DurUs: 100, Children: []*obs.SpanJSON{
				{Name: "pass", StartUs: 10, DurUs: 40, Children: []*obs.SpanJSON{ // [10,50]
					{Name: "leaf", StartUs: 20, DurUs: 10}, // [20,30]
				}},
				{Name: "pass", StartUs: 30, DurUs: 40}, // [30,70], overlaps the first pass
			}},
			{Name: "exact.run", StartUs: 80, DurUs: 10}, // [80,90], orphan inside rank
		},
		Dropped: 2,
	}
}

func TestFoldSelfTimeUsesUnionOfOverlappingChildren(t *testing.T) {
	f := newFold()
	f.add(syntheticTrace())
	// rank: 100 minus the union of [10,70] and the adopted [80,90] = 30.
	// Summing the children instead would give 100-40-40-10 = 10.
	if got := f.get("rank").Self; !near(got, 30) {
		t.Errorf("rank self = %v, want 30", got)
	}
	if got := f.get("rank").Total; !near(got, 100) {
		t.Errorf("rank total = %v, want 100", got)
	}
	// The passes: 40-10 (leaf) + 40 = 70 self, 80 busy, 60 wall.
	p := f.get("pass")
	if p.Count != 2 || !near(p.Self, 70) || !near(p.Total, 80) || !near(p.Wall, 60) {
		t.Errorf("pass = %+v, want count 2, self 70, total 80, wall 60", p)
	}
	if got := f.get("exact.run"); got.Count != 1 || !near(got.Total, 10) || !near(got.Self, 10) {
		t.Errorf("exact.run = %+v, want one span of 10", got)
	}
	if f.Dropped != 2 || f.Traces != 1 {
		t.Errorf("dropped %d traces %d, want 2 and 1", f.Dropped, f.Traces)
	}
	if got := f.get("absent"); got.Count != 0 || got.Total != 0 {
		t.Errorf("absent name = %+v, want zero", got)
	}
}

func TestFoldNeverNegative(t *testing.T) {
	// Children that stick out of their parent's interval are clipped.
	tr := &obs.TraceJSON{Spans: []*obs.SpanJSON{
		{Name: "request", StartUs: 0, DurUs: 10, Children: []*obs.SpanJSON{
			{Name: "flight", StartUs: 5, DurUs: 50},
			{Name: "flight", StartUs: 2, DurUs: 4},
		}},
	}}
	f := newFold()
	f.add(tr)
	if got := f.get("request").Self; !near(got, 2) {
		t.Errorf("request self = %v, want 2 ([0,2] uncovered)", got)
	}
}

func TestAdoptOrphansPicksDeepestEnclosingSpan(t *testing.T) {
	sp := []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "compute", start: 10, end: 90, parent: 0},
		{name: "rank", start: 20, end: 80, parent: 1},
		{name: "exact.run", start: 30, end: 40, parent: -1},
		{name: "late", start: 95, end: 120, parent: -1}, // not enclosed: stays a root
	}
	adoptOrphans(sp)
	if sp[3].parent != 2 {
		t.Errorf("exact.run adopted by %d, want rank (2)", sp[3].parent)
	}
	if sp[4].parent != -1 || sp[0].parent != -1 {
		t.Errorf("unenclosed roots re-parented: %+v", sp)
	}
}

func TestUnionLen(t *testing.T) {
	iv := []interval{{5, 7}, {0, 2}, {1, 3}, {6, 6}, {10, 11}}
	if got := unionLen(iv); !near(got, 6) {
		t.Errorf("unionLen = %v, want 6", got)
	}
}
