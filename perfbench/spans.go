package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call. Spans of one request share req; parent is the
// index of the enclosing span, or -1 for a request-level span.
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Overlapping children count once, and a child
// reaching outside its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	return total + curEnd - curStart
}

// write stores the spans with their self times as JSON.
func (t *tracer) write(path string) error {
	type out struct {
		span
		Self time.Duration `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, self[i]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
