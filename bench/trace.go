package main

import (
	"sort"
	"time"
)

// span is one timed interval of the benchmark's own making: a call into a
// layer, a stage of a run, a probe. Spans are recorded from bench/'s code,
// around the calls — none is emitted by the program under test. Times are
// Unix nanoseconds so spans recorded in a child process line up with the
// parent's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload,omitempty"`
}

// tracer keeps spans in memory until the benchmark ends; the caller writes
// them out once.
type tracer struct {
	spans []span
}

// start opens a span under parent and returns its id.
func (t *tracer) start(parent int, name, workload string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: time.Now().UnixNano(), Workload: workload})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	t.spans[id-1].EndNS = time.Now().UnixNano()
}

// add records an already-timed span (one measured in a child process).
func (t *tracer) add(parent int, name, workload string, startNS, endNS int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: startNS, EndNS: endNS, Workload: workload})
	return id
}

// graft appends spans recorded by another tracer (a child process) under
// parent, renumbering them; spans whose Parent is 0 there become children of
// parent here.
func (t *tracer) graft(parent int, spans []span) {
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns every span's duration minus the part of it its direct
// children cover, keyed by span id. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals inside p.
func covered(p span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.StartNS, p.StartNS), min(c.EndNS, p.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
