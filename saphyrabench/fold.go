package main

import (
	"slices"

	"saphyra/internal/obs"
)

// span is one span of a flattened trace; times are microseconds from the
// trace start.
type span struct {
	name       string
	start, end float64
	parent     int // index into the flat slice, -1 for a root
}

// flatten lists a rendered span forest depth-first.
func flatten(t *obs.TraceJSON) []span {
	var out []span
	var walk func(n *obs.SpanJSON, parent int)
	walk = func(n *obs.SpanJSON, parent int) {
		i := len(out)
		out = append(out, span{name: n.Name, start: n.StartUs, end: n.StartUs + n.DurUs, parent: parent})
		for _, c := range n.Children {
			walk(c, i)
		}
	}
	for _, r := range t.Spans {
		walk(r, -1)
	}
	return out
}

// depth is the number of ancestors of span i.
func depth(sp []span, i int) int {
	d := 0
	for p := sp[i].parent; p >= 0; p = sp[p].parent {
		d++
	}
	return d
}

// descends reports whether span i lies below span anc.
func descends(sp []span, i, anc int) bool {
	for p := sp[i].parent; p >= 0; p = sp[p].parent {
		if p == anc {
			return true
		}
	}
	return false
}

// adoptOrphans gives every root that ran inside another span's interval a
// parent: the deepest span enclosing it (the latest-started among equals).
// Some layers open their spans on a context that does not carry the
// caller's span, so they arrive as roots although the enclosing call
// caused them; attributing by containment charges their time to the right
// caller.
func adoptOrphans(sp []span) {
	for r := range sp {
		if sp[r].parent >= 0 {
			continue
		}
		best, bestDepth := -1, -1
		for s := range sp {
			if s == r || sp[s].start > sp[r].start || sp[s].end < sp[r].end || descends(sp, s, r) {
				continue
			}
			if d := depth(sp, s); d > bestDepth || (d == bestDepth && sp[s].start >= sp[best].start) {
				best, bestDepth = s, d
			}
		}
		if best >= 0 {
			sp[r].parent = best
		}
	}
}

type interval struct{ lo, hi float64 }

// unionLen is the total length covered by the intervals (sorted in place).
func unionLen(iv []interval) float64 {
	slices.SortFunc(iv, func(a, b interval) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var total, lo, hi float64
	open := false
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if !open || x.lo > hi {
			if open {
				total += hi - lo
			}
			lo, hi, open = x.lo, x.hi, true
			continue
		}
		hi = max(hi, x.hi)
	}
	if open {
		total += hi - lo
	}
	return total
}

// selfTimes returns each span's duration minus the union of its
// children's intervals, clipped to its own. Overlapping children (parallel
// workers) are counted once, so a self time is never negative.
func selfTimes(sp []span) []float64 {
	kids := make([][]interval, len(sp))
	for _, s := range sp {
		if p := s.parent; p >= 0 {
			lo, hi := max(s.start, sp[p].start), min(s.end, sp[p].end)
			kids[p] = append(kids[p], interval{lo, hi})
		}
	}
	self := make([]float64, len(sp))
	for i, s := range sp {
		self[i] = (s.end - s.start) - unionLen(kids[i])
	}
	return self
}

// nameTotals aggregates every span of one name over the folded traces.
type nameTotals struct {
	Count int64
	Total float64 // summed durations, µs
	Self  float64 // summed self times, µs
	Wall  float64 // per trace, the union of this name's intervals; summed, µs
}

// fold accumulates traces into per-name totals: spans are attributed by
// trace and name, never by the position of their parent.
type fold struct {
	Traces  int64
	Dropped int64
	Names   map[string]*nameTotals
}

func newFold() *fold { return &fold{Names: map[string]*nameTotals{}} }

// add folds one trace.
func (f *fold) add(t *obs.TraceJSON) {
	if t == nil {
		return
	}
	f.Traces++
	f.Dropped += int64(t.Dropped)
	sp := flatten(t)
	adoptOrphans(sp)
	self := selfTimes(sp)
	byName := map[string][]interval{}
	for i, s := range sp {
		nt := f.Names[s.name]
		if nt == nil {
			nt = &nameTotals{}
			f.Names[s.name] = nt
		}
		nt.Count++
		nt.Total += s.end - s.start
		nt.Self += self[i]
		byName[s.name] = append(byName[s.name], interval{s.start, s.end})
	}
	for name, iv := range byName {
		f.Names[name].Wall += unionLen(iv)
	}
}

// get returns the totals for a name (zero when it never appeared).
func (f *fold) get(name string) nameTotals {
	if nt := f.Names[name]; nt != nil {
		return *nt
	}
	return nameTotals{}
}

// perTrace divides a total by the number of folded traces.
func (f *fold) perTrace(x float64) float64 { return ratio(x, float64(f.Traces)) }
