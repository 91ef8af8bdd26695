package main

import (
	"sort"
	"time"

	"edbp/internal/span"
)

// spanSet indexes finished spans, as span.ReadJSONL returns them from
// edbpd's GET /trace and GET /trace/{grid-id}, by parent.
type spanSet struct {
	recs     []span.Record
	children map[span.SpanID][]int
}

func newSpanSet(recs []span.Record) *spanSet {
	s := &spanSet{recs: recs, children: make(map[span.SpanID][]int)}
	for i, r := range recs {
		if !r.Parent.IsZero() {
			s.children[r.Parent] = append(s.children[r.Parent], i)
		}
	}
	return s
}

// named returns every span called name.
func (s *spanSet) named(name string) []span.Record {
	var out []span.Record
	for _, r := range s.recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// childrenOf returns r's direct children.
func (s *spanSet) childrenOf(r span.Record) []span.Record {
	out := make([]span.Record, 0, len(s.children[r.ID]))
	for _, i := range s.children[r.ID] {
		out = append(out, s.recs[i])
	}
	return out
}

// child returns r's first direct child called name.
func (s *spanSet) child(r span.Record, name string) (span.Record, bool) {
	for _, i := range s.children[r.ID] {
		if s.recs[i].Name == name {
			return s.recs[i], true
		}
	}
	return span.Record{}, false
}

// descendants returns every span below r, at any depth, whose name is in
// names.
func (s *spanSet) descendants(r span.Record, names ...string) []span.Record {
	var out []span.Record
	stack := []span.SpanID{r.ID}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range s.children[id] {
			c := s.recs[i]
			for _, n := range names {
				if c.Name == n {
					out = append(out, c)
					break
				}
			}
			stack = append(stack, c.ID)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap (a grid's dispatches run
// concurrently), so the covered part is the length of their union, not the
// sum of their durations.
func selfTime(parent span.Record, children []span.Record) time.Duration {
	return parent.Dur - covered(parent, children)
}

// covered returns the length of the union of the spans' intervals, clipped
// to parent's interval.
func covered(parent span.Record, spans []span.Record) time.Duration {
	type interval struct{ lo, hi time.Time }
	plo, phi := parent.Start, parent.Start.Add(parent.Dur)
	ivs := make([]interval, 0, len(spans))
	for _, c := range spans {
		lo, hi := c.Start, c.Start.Add(c.Dur)
		if lo.Before(plo) {
			lo = plo
		}
		if hi.After(phi) {
			hi = phi
		}
		if hi.After(lo) {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case !iv.lo.After(cur.hi):
			if iv.hi.After(cur.hi) {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = iv
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
